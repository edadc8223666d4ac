import functools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs

import solocancel as sc
from solocancel import (
    AudioBuffer,
    BlockWienerConfig,
    MawSsConfig,
    SolverError,
    block_wiener,
    maw_cancel,
    maw_ss_cancel,
    spectral_subtract,
)
from solocancel import wiener
from solocancel.wiener import matched_accompaniment


def explicit_normal_equations(ref_window, block, taps, reg):
    """Oracle: the loaded covariance and cross-correlation of one block, built
    from the explicit M x N Toeplitz data matrix in O(M^2 N)."""
    n = len(block)
    data = scipy.linalg.toeplitz(ref_window[taps - 1 :: -1], ref_window[taps - 1 :])
    cov = (data @ data.T) / n
    cross = (data @ block) / n
    if reg > 0.0:
        cov[np.diag_indices_from(cov)] += reg * np.trace(cov) / taps
    return cov, cross


def explicit_solve_block(ref_window, block, taps, reg):
    """Oracle for ``wiener._solve_block``: Cholesky on the explicit build."""
    cov, cross = explicit_normal_equations(ref_window, block, taps, reg)
    if np.trace(cov) <= 0.0:
        return np.zeros(taps)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), cross)


# Oracle for ``wiener._solve_block``: the stacked solve it replaced, kept verbatim. It
# builds each covariance matrix by its diagonal recursion and factors it with LAPACK's
# O(M^3) Cholesky factorization.
def cholesky_solve_block(
    ref_window: np.ndarray, block: np.ndarray, taps: int, reg: float
) -> np.ndarray:
    """Wiener-Hopf solve on one block, or on a stack of blocks.

    ``ref_window`` holds the M + N - 1 reference samples ending with the
    block; returns the M optimal taps. A silent reference window yields the
    zero filter (the normal equations vanish identically). Windows and blocks
    stacked on a leading axis give one row of taps per block; a singular
    block anywhere in the stack raises ``SolverError``.

    With s = ``ref_window`` and a = M - 1, R[i, j] = sum_t s[a+t-i] s[a+t-j]
    over the N block samples t. Row 0 of R and p are correlations of s with
    the in-block segment s[a:a+N] and with the block; the rest of the upper
    triangle, the only part Cholesky reads, follows from
    R[i+1, j+1] = R[i, j] + s[a-i-1] s[a-j-1] - s[a-i+N-1] s[a-j+N-1].
    Each matrix is stored transposed, ``lower[b, j, i] = R_b[i, j]``, so that
    column j + 1 of R follows from column j as one contiguous row, one step
    for the whole stack, and ``lower[b].T`` is the Fortran-ordered upper
    triangle that LAPACK's ``dpotrf`` factors in place, without the copy
    ``cho_factor`` makes of a C-ordered matrix. Every element takes the same
    rounding steps in the same order as in a row-by-row build factored by
    ``cho_factor``/``cho_solve``, so the taps have the same bytes.
    """
    windows = np.atleast_2d(ref_window)
    blocks = np.atleast_2d(block)
    count, n = blocks.shape
    a = taps - 1
    size = scipy.fft.next_fast_len(taps + n - 1, real=True)  # long enough that no lag wraps
    lower = np.zeros((count, taps, taps))
    cross = np.empty((count, taps))
    for b, (window, blk) in enumerate(zip(windows, blocks)):
        spec = scipy.fft.rfft(window, size)
        segments = scipy.fft.rfft(np.stack((window[a : a + n], blk)), size)
        lower[b, :, 0], cross[b] = scipy.fft.irfft(spec * segments.conj(), size)[:, a::-1]
    entering = np.ascontiguousarray(windows[:, :a][:, ::-1])
    leaving = np.ascontiguousarray(windows[:, n : a + n][:, ::-1])
    product = np.empty((count, a))
    for j in range(a):
        column = lower[:, j + 1, 1 : j + 2]  # R[1 : j + 2, j + 1] from R[: j + 1, j]
        np.multiply(entering[:, : j + 1], entering[:, j, None], out=column)
        np.add(lower[:, j, : j + 1], column, out=column)
        np.multiply(leaving[:, : j + 1], leaving[:, j, None], out=product[:, : j + 1])
        np.subtract(column, product[:, : j + 1], out=column)
    lower /= n
    cross /= n
    w = np.zeros((count, taps))
    for b, matrix in enumerate(lower):
        trace = float(np.trace(matrix))
        if trace <= 0.0:
            continue
        if reg > 0.0:
            matrix.reshape(-1)[:: taps + 1] += reg * trace / taps
        factor, info = dpotrf(matrix.T, lower=0, overwrite_a=1, clean=0)
        if info > 0:
            raise SolverError("sample covariance is singular; retry with regularization > 0")
        w[b] = dpotrs(factor, cross[b], lower=0)[0]
    return w if np.ndim(block) == 2 else w[0]


# Oracle for the step loop of ``wiener._solve_block``: the solve as it was before its
# steps wrote into a second generator buffer and built each rotation in fewer calls,
# kept verbatim with its rotation constants. The two must give the same bytes.

# Each Schur step maps the generator rows (u, e, v, l) to
#   u' = ch (c1 u + s1 e) - sh (c2 v + s2 l),   e' = c1 e - s1 u,
#   v' = ch (c2 v + s2 l) - sh (c1 u + s1 e),   l' = c2 l - s2 v,
# with (c1, s1) and (c2, s2) the Givens rotations that zero the top of e and of l
# and (ch, sh) the hyperbolic rotation that zeroes the top of v. The rows of that
# 4 x 4 matrix are gathered from (ch, -sh) and (c1, s1, c2, s2) by these indices.
_HYPERBOLIC = np.array([[0, 0, 1, 1], [1, 1, 0, 0]])  # rows u', v'
_GIVENS = np.array([1, 0, 3, 2])  # rows e', l', times the signs below
_GIVENS_SIGNS = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]])
_DIFF_SUM = np.array([[1.0, 1.0], [-1.0, 1.0]])
_PLUS_MINUS = np.array([1.0, -1.0])


def schur_solve_block(
    ref_window: np.ndarray, block: np.ndarray, taps: int, reg: float
) -> np.ndarray:
    """Wiener-Hopf solve on one block, or on a stack of blocks.

    ``ref_window`` holds the M + N - 1 reference samples ending with the
    block; returns the M optimal taps. A silent reference window yields the
    zero filter (the normal equations vanish identically). Windows and blocks
    stacked on a leading axis give one row of taps per block; a singular
    block anywhere in the stack raises ``SolverError``.

    With s = ``ref_window`` and a = M - 1, R[i, j] = sum_t s[a+t-i] s[a+t-j]
    over the N block samples t; the 1/N of the sample moments cancels from
    the normal equations, so it is left out. Column 0 of R and p are
    correlations of s with the in-block segment s[a:a+N] and with the block.
    R is Toeplitz-like: with Z the down-shift, R - Z R Z^T = G J G^T for the
    M x 4 generator G = [u, e, v, l] and J = diag(1, 1, -1, -1), where
    u = R[:, 0] / sqrt(R[0, 0]), v is u with v[0] = 0, e[i] = s[a-i] and
    l[i] = s[a-i+N] for i >= 1, and e[0] = l[0] = 0. Loading R by lambda I
    adds lambda to R[0, 0] alone, since I - Z Z^T = diag(1, 0, ..., 0).

    The generalized Schur algorithm (Kailath & Sayed 1995) turns G into the
    Cholesky factor L of R = L L^T in O(M^2). At step k, Givens rotations on
    (u, e) and (v, l) and a hyperbolic rotation on (u, v), one J-unitary
    4 x 4 matrix, bring the generator's top row to (d, 0, 0, 0). The rotated
    u is column k of L; u shifted down one row, with e, v and l, generates
    the Schur complement. The hyperbolic rotation needs
    rho = |(v, l)| / |(u, e)| < 1, which holds at every step exactly when R is
    positive definite. A block where rho reaches 1 or is not finite leaves a
    non-positive or non-finite pivot in L and raises ``SolverError``.
    Chandrasekaran & Sayed (1996) analyse the rounding of this algorithm; the
    rotations here are applied directly, one matrix product per step. Each
    step runs for the whole stack at once, and LAPACK's ``dpptrs`` solves
    with each packed factor.
    """
    import scipy.fft  # here, not at the top: importing it dominates package start-up
    from scipy.linalg.lapack import dpptrs  # here too, for the same reason

    windows = np.atleast_2d(ref_window)
    blocks = np.atleast_2d(block)
    count, n = blocks.shape
    a = taps - 1
    size = scipy.fft.next_fast_len(taps + n - 1, real=True)  # long enough that no lag wraps
    gen = np.zeros((count, 4, taps))  # each block's generator, rows u, e, v, l
    cross = np.empty((count, taps))
    for b, (window, blk) in enumerate(zip(windows, blocks)):
        spec = scipy.fft.rfft(window, size)
        segments = scipy.fft.rfft(np.stack((window[a : a + n], blk)), size)
        gen[b, 0], cross[b] = scipy.fft.irfft(spec * segments.conj(), size)[:, a::-1]
    gen[:, 1, 1:] = windows[:, :a][:, ::-1]
    gen[:, 3, 1:] = windows[:, n : a + n][:, ::-1]
    # R[i, i] - R[0, 0], the sum over 0 < j <= i of e[j]^2 - l[j]^2
    diagonal = np.cumsum(gen[:, 1] ** 2 - gen[:, 3] ** 2, axis=1)
    trace = taps * gen[:, 0, 0] + diagonal.sum(axis=1)
    silent = trace <= 0.0
    gen[:, 0, 0] += reg * trace / taps
    gen[silent] = 0.0
    gen[silent, 0, 0] = 1.0  # the generator of I: no NaN, and no solve below
    factor = np.empty((count, taps * (taps + 1) // 2))  # L, column-major packed
    theta = np.empty((count, 4, 4))
    uv_rows, el_rows = theta[:, ::2], theta[:, 1::2]
    start = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # singular blocks and zero pairs
        gen[:, 0] /= np.sqrt(gen[:, 0, :1])
        gen[:, 2, 1:] = gen[:, 0, 1:]
        for k in range(taps):
            top = gen[:, :, k]
            norm = np.hypot(top[:, ::2], top[:, 1::2])  # |(u, e)|, |(v, l)|
            rot = top / norm.repeat(2, axis=1)  # c1, s1, c2, s2
            # a zero pair needs no rotation, so any will do: 0/0 becomes 45 degrees
            np.copyto(rot, 0.5**0.5, where=rot != rot)
            diff_sum = norm @ _DIFF_SUM  # |(u, e)| -+ |(v, l)|
            # ch and -sh: 1 and -rho over sqrt(1 - rho^2)
            hyp = norm * _PLUS_MINUS / np.sqrt(diff_sum[:, :1] * diff_sum[:, 1:])
            np.multiply(hyp[:, _HYPERBOLIC], rot[:, None, :], out=uv_rows)
            np.multiply(rot[:, None, _GIVENS], _GIVENS_SIGNS, out=el_rows)
            np.matmul(theta, gen[:, :, k:], out=gen[:, :, k:])
            factor[:, start : start + taps - k] = gen[:, 0, k:]
            gen[:, 0, k + 1 :] = gen[:, 0, k:-1]  # shift u down one row
            start += taps - k
    pivots = factor[:, np.cumsum(np.arange(taps + 1, 1, -1)) - taps - 1]  # diagonal of L
    if not np.all((pivots > 0.0) & (pivots < np.inf), axis=1)[~silent].all():
        raise SolverError("sample covariance is singular; retry with regularization > 0")
    w = np.zeros((count, taps))
    for b in np.flatnonzero(~silent):
        w[b] = dpptrs(taps, factor[b], cross[b, :, None], lower=1)[0][:, 0]
    return w if np.ndim(block) == 2 else w[0]


def vectorized_theta(top):
    """The rotations that ``_solve_block``'s vectorized build makes from each block's top
    generator row (u, e, v, l), rows of ``top``: numpy's quotients, 0/0 as 45 degrees."""
    count = len(top)
    row = np.zeros((count, 9))  # [ch, -sh, 1, -1, 0, c1, s1, c2, s2]
    row[:, 2:4] = 1.0, -1.0
    pairs = top.reshape(count, 2, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm = np.hypot(pairs[:, :, 0], pairs[:, :, 1])
        rot = pairs / norm[:, :, None]
        row[:, 5:] = np.where(rot != rot, 0.5**0.5, rot).reshape(count, 4)
        terms = norm @ wiener._HYPERBOLIC
        row[:, :2] = terms[:, 2:] / np.sqrt(terms[:, :1] * terms[:, 1:2])
        factors = row.take(wiener._THETA, axis=1)
        return factors[:, 0] * factors[:, 1], norm


def assert_solves(window, block, taps, reg, got, expected):
    """The oracle criteria for one row of taps ``got``: exact zeros for a silent window,
    else a backward error within 1e-12 of the scale of the explicit system and, where
    that system is well conditioned, a forward error within 1e-9 of ``expected``."""
    if not window.any():
        assert np.all(got == 0.0)
        return
    cov, cross = explicit_normal_equations(window, block, taps, reg)
    # Backward error: the taps solve the oracle's system up to the rounding of
    # an FFT correlation, whose error scales with |window| |block|.
    scale = np.linalg.norm(cov, 2) * np.linalg.norm(got)
    scale += np.linalg.norm(window) * np.linalg.norm(block) / len(block)
    assert np.linalg.norm(cov @ got - cross) <= 1e-12 * scale
    # Forward error where the system is well conditioned: rounding moves the taps
    # by up to cond(C) times the backward error, the oracle's too (1e-9 off a
    # 50-digit solve at cond 1e8).
    if np.linalg.cond(cov) <= 1e6:
        assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)


def solve_or_none(solve, windows, blocks, taps, reg):
    """``solve``'s taps, or None where it raises ``SolverError``."""
    try:
        return solve(windows, blocks, taps, reg)
    except SolverError:
        return None


def rowwise(solve):
    """A stacked ``_solve_block`` that calls the one-block ``solve`` on each row."""
    def stacked(windows, blocks, taps, reg):
        return np.array([solve(w, b, taps, reg) for w, b in zip(windows, blocks)])
    return stacked


@st.composite
def block_problems(draw, taps=None, n=None):
    """A (ref_window, block, taps) triple: noise windows of amplitude 1e-3 to 1e3 with
    leading and trailing zero runs, the block sharing the window's trailing zeros as
    matched_accompaniment's padding does, and at least one non-zero window sample.
    ``taps`` and the block length ``n`` are drawn unless given."""
    taps = draw(st.integers(1, 64)) if taps is None else taps
    n = draw(st.integers(taps + 1, 600)) if n is None else n
    length = taps + n - 1
    lead = draw(st.integers(0, length - 1))
    trail = draw(st.integers(0, length - 1 - lead))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.standard_normal(length)
    window[:lead] = 0.0
    window[length - trail :] = 0.0
    h = rng.standard_normal(8)
    block = np.convolve(window, h)[taps - 1 : taps - 1 + n]
    block += 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.standard_normal(n)
    block[n - min(trail, n) :] = 0.0
    return window, block, taps


@st.composite
def block_stacks(draw):
    """A (windows, blocks, taps) stack of 1 to 12 rows of ``block_problems`` that share
    the taps and block length; one row may have an all-zero window. Stacks of up to
    ``wiener._SCALAR_STACK`` rows build their rotations from Python floats, larger ones
    vectorized, so the draws take both builds."""
    taps = draw(st.integers(1, 64))
    n = draw(st.integers(taps + 1, 600))
    rows = draw(st.lists(block_problems(taps, n), min_size=1, max_size=12))
    windows = np.stack([window for window, _, _ in rows])
    blocks = np.stack([block for _, block, _ in rows])
    zero_row = draw(st.none() | st.integers(0, len(rows) - 1))
    if zero_row is not None:
        windows[zero_row] = 0.0
    return windows, blocks, taps


@functools.cache
def _scene():
    """A 1-s acceptance-style scene."""
    return sc.synth_siso(sc.SceneConfig(
        solo=sc.noise_plus_tones(1.0, 44100, seed=17),
        accompaniment_reference=sc.broadband_accompaniment(1.0, 44100, seed=17),
        mic_ir=sc.make_mic_ir(13.7, 606, seed=17), channel_delay=32, level_diff_db=6.02,
    ))


def _scene_block(taps, n):
    """Reference window and mixture block 0.2 s into ``_scene``."""
    scene = _scene()
    k = 8820
    return scene.reference.samples[k - taps + 1 : k + n], scene.mixture.samples[k : k + n]


def _scene_stack(taps, n, count):
    """``count`` reference windows and mixture blocks of ``_scene`` 64 samples (the
    paper-v hop) apart from 0.2 s in, stacked even when ``count`` is 1."""
    starts = range(8820, 8820 + 64 * count, 64)
    scene = _scene()
    windows = np.stack([scene.reference.samples[k - taps + 1 : k + n] for k in starts])
    blocks = np.stack([scene.mixture.samples[k : k + n] for k in starts])
    return windows, blocks


def _short_take_stack():
    """The paper-v stack of the first 192 samples of ``_scene``: (windows, blocks, taps,
    take), three 1023-tap blocks that are almost all zero padding."""
    taps, n, hop, take = 1023, 16384, 64, 192
    scene = _scene()
    ref = np.concatenate((np.zeros(taps - 1), scene.reference.samples[:take], np.zeros(n)))
    mix = np.concatenate((scene.mixture.samples[:take], np.zeros(n)))
    windows = np.stack([ref[k : k + taps + n - 1] for k in range(0, take, hop)])
    blocks = np.stack([mix[k : k + n] for k in range(0, take, hop)])
    return windows, blocks, taps, take


class TestBlockWiener:
    def test_self_identification(self):
        rng = np.random.default_rng(0)
        blk = rng.standard_normal(2000)
        ref = AudioBuffer(np.concatenate([np.zeros(7), blk]))
        w = block_wiener(ref, AudioBuffer(blk), taps=8, regularization=1e-10)
        delta = np.zeros(8)
        delta[0] = 1.0
        assert np.linalg.norm(w.taps - delta) < 1e-6

    def test_planted_filter_recovered(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(16)
        h /= np.linalg.norm(h)
        n = 16000
        ref = rng.standard_normal(n + 15)
        mix = np.convolve(ref, h)[15 : 15 + n]
        w = block_wiener(AudioBuffer(ref), AudioBuffer(mix), taps=16)
        assert np.linalg.norm(w.taps - h) / np.linalg.norm(h) < 0.05

    @pytest.mark.parametrize("scale", [1e-170, 1e-162, 1e153, 1e300, 2.0**-500, 2.0**500])
    def test_planted_filter_recovered_at_any_level(self, scale):
        # Unscaled, R underflowed (a silent block at 1e-170, drifting taps at 1e-162) or
        # overflowed (SolverError after overflow warnings from 1e153 up).
        rng = np.random.default_rng(11)
        h = np.array([0.5, -0.3, 0.2])
        ref = rng.standard_normal(258)
        mix = np.convolve(ref, h, "valid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = block_wiener(AudioBuffer(scale * ref), AudioBuffer(scale * mix), 3, 0.0)
        assert np.allclose(w.taps, h, rtol=0.0, atol=1e-12)
        if np.frexp(scale)[0] == 0.5:  # a power of two: the unscaled solve's taps, exactly
            unscaled = block_wiener(AudioBuffer(ref), AudioBuffer(mix), 3, 0.0)
            assert w.taps.tobytes() == unscaled.taps.tobytes()

    def test_zero_reference_gives_zero_filter(self):
        w = block_wiener(AudioBuffer(np.zeros(107)), AudioBuffer(np.ones(100)), taps=8)
        assert np.all(w.taps == 0.0)

    def test_singular_without_loading_raises(self):
        # rank-1 reference (constant) with zero regularization
        ref = AudioBuffer(np.ones(107))
        with pytest.raises(SolverError):
            block_wiener(ref, AudioBuffer(np.ones(100)), taps=8, regularization=0.0)

    @pytest.mark.parametrize("where", ["window", "block"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, where, bad):
        # a NaN in the window raised SolverError, which asks for loading; an inf in the
        # block warned, then failed in FirFilter
        rng = np.random.default_rng(7)
        window, block = rng.standard_normal(107), rng.standard_normal(100)
        (window if where == "window" else block)[50] = bad
        with pytest.raises(FloatingPointError, match="reference window/mixture block"):
            block_wiener(AudioBuffer(window), AudioBuffer(block), taps=8)

    def test_window_length_validated(self):
        with pytest.raises(ValueError):
            block_wiener(AudioBuffer(np.zeros(50)), AudioBuffer(np.zeros(100)), taps=8)

    def test_solver_residual_on_random_spd_systems(self):
        rng = np.random.default_rng(2)
        for taps in (4, 16, 64):
            ref = AudioBuffer(rng.standard_normal(taps + 499))
            blk = AudioBuffer(rng.standard_normal(500))
            w = block_wiener(ref, blk, taps=taps, regularization=1e-8)
            data = scipy.linalg.toeplitz(ref.samples[taps - 1 :: -1], ref.samples[taps - 1 :])
            cov = data @ data.T / 500
            cov[np.diag_indices_from(cov)] += 1e-8 * np.trace(cov) / taps
            cross = data @ blk.samples / 500
            assert np.linalg.norm(cov @ w.taps - cross) < 1e-8 * np.linalg.norm(cross)

    def test_toeplitz_rows_realize_convolution(self):
        # w' N0(k) must equal the convolution of w with the reference at the
        # block's time points (brute-force oracle, small sizes)
        rng = np.random.default_rng(3)
        taps, n = 7, 20
        ref_win = rng.standard_normal(taps + n - 1)
        w = rng.standard_normal(taps)
        data = scipy.linalg.toeplitz(ref_win[taps - 1 :: -1], ref_win[taps - 1 :])
        product = w @ data
        # ref_win[i] is the reference at time k - taps + 1 + i
        for j in range(n):
            direct = sum(
                w[i] * ref_win[taps - 1 + j - i] for i in range(taps)
            )
            assert product[j] == pytest.approx(direct, abs=1e-10)


class TestSolveBlockOracle:
    @settings(max_examples=150, deadline=None)
    @given(block_problems())
    def test_matches_explicit_build(self, problem):
        window, block, taps = problem
        got = wiener._solve_block(window, block, taps, 1e-8)
        expected = explicit_solve_block(window, block, taps, 1e-8)
        assert_solves(window, block, taps, 1e-8, got, expected)

    @pytest.mark.parametrize("taps,n", [(511, 8192), (1023, 16384)])
    def test_matches_explicit_build_on_scene(self, taps, n):
        window, block = _scene_block(taps, n)
        got = wiener._solve_block(window, block, taps, 1e-8)
        expected = explicit_solve_block(window, block, taps, 1e-8)
        assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("taps", [1, 8, 64])
    @pytest.mark.parametrize("reg", [0.0, 1e-8])
    def test_zero_window_gives_exact_zeros(self, taps, reg):
        block = np.random.default_rng(16).standard_normal(300)
        w = wiener._solve_block(np.zeros(taps + 299), block, taps, reg)
        assert w.shape == (taps,)
        assert np.all(w == 0.0)

    def test_streamed_estimate_matches_explicit_build(self, monkeypatch):
        # a short take, so the first and last blocks carry the zero padding
        rng = np.random.default_rng(17)
        n = 3000
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, rng.standard_normal(12))[:n] + 0.1 * rng.standard_normal(n)
        cfg = BlockWienerConfig(48, 1024, 100)
        got = matched_accompaniment(AudioBuffer(mix), AudioBuffer(ref), cfg).samples
        monkeypatch.setattr(wiener, "_solve_block", rowwise(explicit_solve_block))
        expected = matched_accompaniment(AudioBuffer(mix), AudioBuffer(ref), cfg).samples
        assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)


class TestStackedSolve:
    @settings(max_examples=120, deadline=None)
    @given(block_stacks(), st.sampled_from([0.0, 1e-8]))
    def test_rows_match_cholesky_oracle(self, stack, reg):
        windows, blocks, taps = stack
        expected = solve_or_none(cholesky_solve_block, windows, blocks, taps, reg)
        got = solve_or_none(wiener._solve_block, windows, blocks, taps, reg)
        if (got is None) != (expected is None):
            # The two factorizations may disagree on a singular matrix alone: one
            # whose condition number, unloaded, exceeds 1e12.
            assert reg == 0.0
            conds = [np.linalg.cond(explicit_normal_equations(w, b, taps, reg)[0])
                     for w, b in zip(windows, blocks) if w.any()]
            assert max(conds) > 1e12
            return
        if got is None:
            return
        assert got.shape == (len(blocks), taps)
        for window, blk, row, want in zip(windows, blocks, got, expected):
            assert_solves(window, blk, taps, reg, row, want)

    @pytest.mark.parametrize("taps,n", [(511, 8192), (1023, 16384)])
    def test_one_block_matches_cholesky_oracle_on_scene(self, taps, n):
        window, block = _scene_block(taps, n)
        got = wiener._solve_block(window, block, taps, 1e-8)
        expected = cholesky_solve_block(window, block, taps, 1e-8)
        assert_solves(window, block, taps, 1e-8, got, expected)

    def test_ill_conditioned_short_take(self):
        # Three blocks that are almost all zero padding, with condition numbers of
        # about 2e5, 6e8 and 2e10. Past column 1214 of the data matrix every sample is
        # padding, so the explicit system is built on the columns before it: a
        # multiple of the full system, with the same solution.
        windows, blocks, taps, take = _short_take_stack()
        got = wiener._solve_block(windows, blocks, taps, 1e-8)
        used = taps - 1 + take
        for window, block, row in zip(windows, blocks, got):
            cov, cross = explicit_normal_equations(
                window[: taps - 1 + used], block[:used], taps, 1e-8
            )
            scale = np.linalg.norm(cov, 2) * np.linalg.norm(row)
            scale += np.linalg.norm(window) * np.linalg.norm(block) / used
            assert np.linalg.norm(cov @ row - cross) <= 1e-12 * scale

    def test_mixed_stack(self):
        # a live row, a silent row (exact zeros) and a rank-one row (singular unloaded)
        rng = np.random.default_rng(21)
        taps, n = 8, 100
        windows = rng.standard_normal((3, taps + n - 1))
        windows[1] = 0.0
        windows[2] = 1.0
        blocks = rng.standard_normal((3, n))
        with pytest.raises(SolverError):
            wiener._solve_block(windows, blocks, taps, 0.0)
        for reg, rows in ((0.0, [0, 1]), (1e-8, [0, 1, 2])):
            got = wiener._solve_block(windows[rows], blocks[rows], taps, reg)
            expected = cholesky_solve_block(windows[rows], blocks[rows], taps, reg)
            assert np.all(got[1] == 0.0)
            for row in rows:
                assert_solves(windows[row], blocks[row], taps, reg, got[row], expected[row])

    def test_singular_row_inside_a_stack_raises(self):
        rng = np.random.default_rng(18)
        taps, n = 8, 100
        windows = rng.standard_normal((3, taps + n - 1))
        windows[1] = 1.0  # a constant window: rank-one covariance
        blocks = rng.standard_normal((3, n))
        with pytest.raises(SolverError):
            wiener._solve_block(windows, blocks, taps, 0.0)

    @pytest.mark.parametrize("interpolate", [True, False])
    def test_every_stack_size_gives_the_same_bytes(self, interpolate, monkeypatch):
        # 15 blocks on a short take: the first windows start in the leading zero
        # padding, the last blocks run past the end of the take
        rng = np.random.default_rng(19)
        n = 1500
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, rng.standard_normal(12))[:n] + 0.1 * rng.standard_normal(n)
        cfg = BlockWienerConfig(24, 512, 100, interpolate=interpolate)
        take = AudioBuffer(mix), AudioBuffer(ref), cfg
        factor_bytes = 4 * cfg.taps * (cfg.taps + 1)
        monkeypatch.setattr(wiener, "_STACK_BYTES", factor_bytes)
        expected = matched_accompaniment(*take).samples.tobytes()
        blocks = -(-n // cfg.hop)
        for stack in range(2, blocks + 1):
            monkeypatch.setattr(wiener, "_STACK_BYTES", stack * factor_bytes)
            assert matched_accompaniment(*take).samples.tobytes() == expected, stack

    def test_peak_memory_stays_at_two_matrices(self):
        # The one-block solve held its matrix and the factorization's copy; a stack
        # must fit in that footprint, plus buffers linear in the block length.
        rng = np.random.default_rng(20)
        n = 441
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, rng.standard_normal(12))[:n]
        cfg = BlockWienerConfig(1023, 16384, 64)
        tracemalloc.start()
        try:
            matched_accompaniment(AudioBuffer(mix), AudioBuffer(ref), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrices = 2 * 8 * cfg.taps**2
        slack = 16 * 8 * (cfg.taps + cfg.block_size + n)
        assert peak <= matrices + slack

    def test_peak_memory_stays_at_one_stack_of_factors(self):
        # 44 blocks at the acceptance preset: stacks of 16 packed factors, plus the
        # take's padded copies and output, one block's FFT buffers and the stack's
        # generators with their rotated copy.
        rng = np.random.default_rng(22)
        n = 88200
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, rng.standard_normal(12))[:n]
        cfg = BlockWienerConfig(511, 8192, 2048)
        m, size = cfg.taps, cfg.taps + cfg.block_size
        stack = wiener._STACK_BYTES // (4 * m * (m + 1))
        tracemalloc.start()
        try:
            matched_accompaniment(AudioBuffer(mix), AudioBuffer(ref), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factors = stack * 4 * m * (m + 1)
        buffers = 4 * 8 * (n + size) + 16 * 8 * size + 16 * 8 * m * stack
        assert stack == 16
        assert peak <= factors + buffers


class TestSchurStepOracle:
    """The step loop of ``_solve_block`` gives the bytes of ``schur_solve_block``."""

    @settings(max_examples=120, deadline=None)
    @given(block_stacks(), st.sampled_from([0.0, 1e-8]))
    def test_same_bytes_as_the_old_step(self, stack, reg):
        windows, blocks, taps = stack
        got = solve_or_none(wiener._solve_block, windows, blocks, taps, reg)
        expected = solve_or_none(schur_solve_block, windows, blocks, taps, reg)
        assert (got is None) == (expected is None)  # both raise SolverError, or neither
        if got is not None:
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("taps,n", [(511, 8192), (1023, 16384)])
    def test_same_bytes_on_scene(self, taps, n):
        window, block = _scene_block(taps, n)
        got = wiener._solve_block(window, block, taps, 1e-8)
        assert got.tobytes() == schur_solve_block(window, block, taps, 1e-8).tobytes()

    def test_same_bytes_on_the_ill_conditioned_short_take(self):
        windows, blocks, taps, _ = _short_take_stack()
        got = wiener._solve_block(windows, blocks, taps, 1e-8)
        assert got.tobytes() == schur_solve_block(windows, blocks, taps, 1e-8).tobytes()

    @pytest.mark.parametrize("count", [1, 4])
    def test_same_bytes_on_scene_stacks(self, count):
        # a one-block stack and the paper-v stack size at 1023 taps
        windows, blocks = _scene_stack(1023, 16384, count)
        got = wiener._solve_block(windows, blocks, 1023, 1e-8)
        assert got.tobytes() == schur_solve_block(windows, blocks, 1023, 1e-8).tobytes()

    def test_stack_draws_take_both_rotation_builds(self):
        assert 1 <= wiener._SCALAR_STACK < 12  # block_stacks() draws 1 to 12 rows

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1e-170, 5e-324]), min_size=4,
                 max_size=4),
        min_size=1, max_size=4,
    ))
    @example([[1e-170, 0.0, 0.0, 0.0]])  # 1 - rho^2 times |(u, e)|^2 underflows to 0
    @example([[3.0, -4.0, -0.0, 0.0], [1.0, 0.0, 0.5, -0.5]])
    def test_scalar_rotations_are_the_vectorized_ones(self, tops):
        # Where every block has 0 <= |(v, l)| < |(u, e)| < inf and a non-zero
        # sqrt(|(u, e)|^2 - |(v, l)|^2), the scalar build gives the vectorized bytes;
        # elsewhere it declines, and leaves its output alone.
        top = np.array(tops)
        expected, norm = vectorized_theta(top)
        out = np.full(top.size * 4, 7.0)
        with np.errstate(over="ignore", invalid="ignore"):
            took = wiener._scalar_theta(top.reshape(-1, 2, 2).tolist(), norm.tolist(), out)
            roots = np.sqrt((norm[:, 0] - norm[:, 1]) * (norm[:, 0] + norm[:, 1]))
        inside = (norm[:, 1] < norm[:, 0]) & (norm[:, 0] < np.inf) & (roots > 0.0)
        assert took == inside.all()
        if took:
            assert out.tobytes() == expected.tobytes()
        else:
            assert np.all(out == 7.0)

    @staticmethod
    def _record_norms(monkeypatch):
        """Each step's (|(u, e)|, |(v, l)|) pairs, as the scalar build receives them."""
        steps = []
        build = wiener._scalar_theta

        def recorded(top, norm, out):
            steps.append(norm)
            return build(top, norm, out)

        monkeypatch.setattr(wiener, "_scalar_theta", recorded)
        return steps

    def test_same_bytes_with_zero_pairs_past_the_first_step(self, monkeypatch):
        # Row 0's window holds reference only before the block (a take whose
        # accompaniment stops): its in-block samples are a zero run, so column 0 of R
        # and the generator's v and l are exact zeros, and every step meets a zero
        # (v, l) pair, which takes 45 degrees. Rows 1 and 2 are noise.
        rng = np.random.default_rng(12)
        taps, n = 16, 100
        windows = rng.standard_normal((3, taps + n - 1))
        windows[0, taps - 1 :] = 0.0
        blocks = rng.standard_normal((3, n))
        steps = self._record_norms(monkeypatch)
        got = wiener._solve_block(windows, blocks, taps, 1e-8)
        assert all(norm[0][1] == 0.0 for norm in steps[1:]) and len(steps) == taps
        assert got.tobytes() == schur_solve_block(windows, blocks, taps, 1e-8).tobytes()

    @pytest.mark.parametrize("shape", ["constant", "sinusoid", "ramp"])
    def test_rho_of_one_or_more_raises_as_the_old_step(self, shape, monkeypatch):
        # Unloaded, these windows' covariances have rank one or two. Past that step
        # |(v, l)| reaches |(u, e)| (rho = 1, the constant) or, by rounding, exceeds
        # it, and the vectorized build takes the step. Row 0 is noise.
        rng = np.random.default_rng(13)
        taps, n = 8, 100
        t = np.arange(taps + n - 1.0)
        singular = {"constant": np.ones(len(t)), "sinusoid": np.sin(t + 1), "ramp": t}
        windows = np.stack((rng.standard_normal(len(t)), singular[shape]))
        blocks = rng.standard_normal((2, n))
        steps = self._record_norms(monkeypatch)
        with pytest.raises(SolverError):
            wiener._solve_block(windows, blocks, taps, 0.0)
        assert any(n2 >= n1 for n1, n2 in (norm[1] for norm in steps))
        assert solve_or_none(schur_solve_block, windows, blocks, taps, 0.0) is None


class TestMawCancel:
    def test_zero_reference_passthrough(self):
        rng = np.random.default_rng(4)
        mix = AudioBuffer(rng.standard_normal(5000))
        out = maw_cancel(
            mix, AudioBuffer(np.zeros(5000)), BlockWienerConfig(64, 1024, 256)
        )
        assert np.array_equal(out.samples, mix.samples)

    def test_planted_scene_streamed(self):
        rng = np.random.default_rng(5)
        n = 40_000
        h = rng.standard_normal(16)
        h /= np.linalg.norm(h)
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, h)[:n]
        cfg = BlockWienerConfig(taps=16, block_size=16000, hop=64)
        out = maw_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg)
        mix_rms = np.sqrt(np.mean(mix**2))
        post = out.samples[64:]  # skip warm-up hop
        assert np.sqrt(np.mean(post**2)) < 0.05 * mix_rms

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        n = 6000
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, [0.4, -0.3, 0.2])[:n] + 0.05 * rng.standard_normal(n)
        cfg = BlockWienerConfig(taps=8, block_size=1024, hop=512)
        base = maw_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg)
        scaled = maw_cancel(AudioBuffer(3.0 * mix), AudioBuffer(3.0 * ref), cfg)
        assert np.allclose(scaled.samples, 3.0 * base.samples, rtol=1e-10, atol=1e-12)

    def test_interpolation_changes_transitions_only(self):
        rng = np.random.default_rng(7)
        n = 8000
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, [0.5, 0.25])[:n]
        jump = maw_cancel(
            AudioBuffer(mix), AudioBuffer(ref),
            BlockWienerConfig(4, 1024, 512, interpolate=False),
        )
        smooth = maw_cancel(
            AudioBuffer(mix), AudioBuffer(ref),
            BlockWienerConfig(4, 1024, 512, interpolate=True),
        )
        # first hop identical (no previous filter to blend from)
        assert np.array_equal(jump.samples[:512], smooth.samples[:512])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BlockWienerConfig(taps=1024, block_size=1024, hop=64)
        with pytest.raises(ValueError):
            BlockWienerConfig(taps=16, block_size=1024, hop=0)
        with pytest.raises(ValueError):
            BlockWienerConfig(taps=16, block_size=1024, hop=64, regularization=-1.0)
        with pytest.raises(ValueError):
            BlockWienerConfig(taps=16, block_size=1024, hop=64, regularization=np.nan)
        with pytest.raises(ValueError):
            BlockWienerConfig(taps=16, block_size=1024, hop=64, regularization=np.inf)
        with pytest.raises(ValueError):
            BlockWienerConfig(taps=0, block_size=1024, hop=64)


def where_spectral_subtract(spec_x, spec_y, p):
    """Oracle: the subtraction computed on every bin, then selected by two nested
    ``np.where``; where that is not finite, the same on X and Y scaled by the power of
    two that brings X's larger part into [1/4, 1/2), scaled back."""

    def ldexp(z, shift):
        out = np.empty_like(z)
        out.real = np.ldexp(z.real, shift)
        out.imag = np.ldexp(z.imag, shift)
        return out

    def subtract(spec_x, spec_y):
        ax = np.abs(spec_x)
        ay = np.abs(spec_y)
        mag = (ax**p - ay**p) ** (1.0 / p)
        np.minimum(mag, ax, out=mag)
        subtracted = mag * (spec_x / ax)
        return np.where(ay == 0.0, spec_x, np.where(ax > ay, subtracted, 0.0))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = subtract(spec_x, spec_y)
        shift = 1 + np.frexp(np.maximum(np.abs(spec_x.real), np.abs(spec_x.imag)))[1]
        scaled = ldexp(subtract(ldexp(spec_x, -shift), ldexp(spec_y, -shift)), shift)
    return np.where(np.isfinite(out), out, scaled)


#: Real and imaginary parts for the oracle test: signed zeros, values whose squares and
#: sums tie, subnormals, and values whose |X| or powers overflow, which sends a bin to the
#: power-of-two redo.
PARTS = [0.0, -0.0, 1.0, -1.0, 3.0, -4.0, 5.0, 0.5, 1e-300, 1e300, 1.5e308, -1.7e308, 9e307,
         5e-324, -5e-324, 2.2e-308]

#: What a bin's Y may be forced to: nothing, |Y| = |X| (Y = X, or X with its parts
#: swapped and one negated), or zero |X| or |Y| with signed zero parts.
TIES = ["none", "equal", "swapped", "zero-x", "zero-y"]


def drawn_spectra(parts, tie):
    """X and Y from drawn (re X, im X, re Y, im Y) parts, each bin then forced as ``tie``
    says."""
    x = np.array([complex(a, b) for a, b, _, _ in parts])
    y = np.array([complex(c, d) for _, _, c, d in parts])
    for k, kind in enumerate(tie[: len(parts)]):
        if kind == "equal":
            y[k] = x[k]
        elif kind == "swapped":
            y[k] = complex(-x[k].imag, x[k].real)
        elif kind == "zero-x":
            x[k] = complex(-0.0, 0.0)
        elif kind == "zero-y":
            y[k] = complex(0.0, -0.0)
    return x, y


class TestSpectralSubtract:
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([0.5, 1.0, 1.7, 2.0]),
        parts=st.lists(
            st.tuples(*[st.one_of(st.sampled_from(PARTS), st.floats(-10.0, 10.0)) for _ in range(4)]),
            min_size=1,
            max_size=24,
        ),
        tie=st.lists(st.sampled_from(TIES), min_size=24, max_size=24),
    )
    @example(p=1.0, parts=[(1.5e308, -1.7e308, 9e307, 0.0), (-0.0, 5e-324, -0.0, 0.0)],
             tie=TIES[:1] * 24)
    def test_matches_nested_where_oracle(self, p, parts, tie):
        # Each bin draws X and Y from the parts above and random values, then may force
        # |X| = |Y|, zero |X| or zero |Y|. At p = 1 the subtraction takes |X| - |Y| without
        # powers or clamp; the oracle still takes both.
        x, y = drawn_spectra(parts, tie)
        got = spectral_subtract(x, y, p)
        assert got.tobytes() == where_spectral_subtract(x, y, p).tobytes()
        stack = np.stack([x, y[::-1]])
        got = spectral_subtract(stack, stack[::-1], p)
        assert got.tobytes() == where_spectral_subtract(stack, stack[::-1], p).tobytes()

    @pytest.mark.parametrize("x,y", [
        (1e-320, 5e-321), (3e-310 + 1e-310j, 1e-310), (1e300, 5e299), (3e160, 1e160),
    ])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_extreme_magnitudes_stay_finite(self, x, y, p):
        # a subnormal |X|, and |X|^2 and |Y|^2 past the float range, once gave NaN
        got = spectral_subtract(np.array([x]), np.array([y]), p)[0]
        expected = abs(x) * (1 - (abs(y) / abs(x)) ** p) ** (1 / p)
        assert np.isfinite(got)
        assert abs(got) == pytest.approx(expected, rel=1e-12, abs=1e-323)
        assert np.angle(got) == pytest.approx(np.angle(x), abs=1e-12)

    @pytest.mark.parametrize("p,expected", [(1.0, 0.5e308), (2.0, 1.25**0.5 * 1e308)])
    def test_overflowing_sum_redoes_only_non_finite_bins(self, p, expected):
        # the output's sum overflows, which sends every bin to the exact check
        x = np.full(2, 1.5e308 + 0j)
        got = spectral_subtract(x, np.array([0.0, 1e308 + 0j]), p)
        assert got[0] == x[0]
        assert got[1].real == pytest.approx(expected, rel=1e-15) and got[1].imag == 0.0

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
                          max_size=4), p=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_finite_input_gives_finite_output(self, parts, p):
        x, y = np.array([complex(*parts[:2])]), np.array([complex(*parts[2:])])
        got = spectral_subtract(x, y, p)
        assert np.isfinite(got).all()
        # |E| <= |X| up to the rounding of E's parts; |X| of a finite X may overflow
        with np.errstate(over="ignore"):
            assert np.abs(got) <= np.abs(x) * (1 + 4 * np.finfo(float).eps)

    def test_equal_magnitudes_cancel(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = -np.conj(x)  # identical magnitude, different phase
        assert np.all(spectral_subtract(x, y, 2.0) == 0.0)

    def test_zero_estimate_passes_input_bits(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = spectral_subtract(x, np.zeros(64, dtype=complex), 1.0)
        assert np.array_equal(out, x)

    def test_p2_worked_example(self):
        x = np.array([5.0 * np.exp(1j * np.pi / 4)])
        y = np.array([3.0 + 0.0j])
        out = spectral_subtract(x, y, 2.0)
        assert np.abs(out[0]) == pytest.approx(4.0, abs=1e-12)
        assert np.angle(out[0]) == pytest.approx(np.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_output_bounded_by_input(self, p):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        y = 2.0 * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
        out = np.abs(spectral_subtract(x, y, p))
        assert np.all(out >= 0.0)
        assert np.all(out <= np.abs(x))

    def test_phase_comes_from_first_argument(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y = 0.5 * (rng.standard_normal(128) + 1j * rng.standard_normal(128))
        out = spectral_subtract(x, y, 1.0)
        nz = np.abs(out) > 0
        assert np.allclose(np.angle(out[nz]), np.angle(x[nz]), atol=1e-12)

    def test_invalid_p_rejected(self):
        x = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            spectral_subtract(x, x, 0.0)
        with pytest.raises(ValueError):
            spectral_subtract(x, x, -1.0)
        with pytest.raises(ValueError):
            spectral_subtract(x, x, np.nan)
        with pytest.raises(ValueError):
            spectral_subtract(x, x, np.inf)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spectral_subtract(np.ones(4, dtype=complex), np.ones(5, dtype=complex), 2.0)


class TestMawSsCancel:
    def test_zero_reference_interior_passthrough(self):
        rng = np.random.default_rng(12)
        n = 20_000
        mix = AudioBuffer(rng.standard_normal(n))
        out = maw_ss_cancel(
            mix, AudioBuffer(np.zeros(n)), MawSsConfig(16, 2048, 1024, fft_size=1024, fft_hop=512)
        )
        inner = slice(1024, n - 1024)
        err = np.linalg.norm(out.samples[inner] - mix.samples[inner])
        assert err / np.linalg.norm(mix.samples[inner]) < 1e-6

    def test_output_length_matches_input(self):
        rng = np.random.default_rng(13)
        n = 9000
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, [0.5])[:n]
        out = maw_ss_cancel(
            AudioBuffer(mix), AudioBuffer(ref), MawSsConfig(8, 1024, 512, fft_size=512, fft_hop=256)
        )
        assert len(out) == n

    def test_stft_hop_defaults_to_half_the_frame(self):
        rng = np.random.default_rng(15)
        n = 6000
        ref = AudioBuffer(rng.standard_normal(n))
        mix = AudioBuffer(np.convolve(ref.samples, [0.5])[:n] + 0.1 * rng.standard_normal(n))
        default = maw_ss_cancel(mix, ref, MawSsConfig(8, 1024, 512, fft_size=1024))
        half = maw_ss_cancel(mix, ref, MawSsConfig(8, 1024, 512, fft_size=1024, fft_hop=512))
        assert default.samples.tobytes() == half.samples.tobytes()

    def test_block_wiener_config_runs_with_the_stft_defaults(self):
        # the benchmark's call form: a plain BlockWienerConfig takes MawSsConfig's defaults
        rng = np.random.default_rng(16)
        n = 12000
        ref = AudioBuffer(rng.standard_normal(n))
        mix = AudioBuffer(np.convolve(ref.samples, [0.5, 0.2])[:n] + 0.1 * rng.standard_normal(n))
        plain = maw_ss_cancel(mix, ref, BlockWienerConfig(8, 1024, 512, interpolate=False))
        full = maw_ss_cancel(mix, ref, MawSsConfig(8, 1024, 512, interpolate=False))
        assert plain.samples.tobytes() == full.samples.tobytes()

    def test_window_override(self):
        rng = np.random.default_rng(14)
        n = 6000
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, [0.5])[:n] + 0.1 * rng.standard_normal(n)
        outputs = [
            maw_ss_cancel(AudioBuffer(mix), AudioBuffer(ref), MawSsConfig(
                8, 1024, 512, fft_size=512, fft_hop=256, window_shape=shape,
            )).samples
            for shape in (4.0, 8.0)
        ]
        assert np.all(np.isfinite(outputs[1]))
        assert outputs[0].tobytes() != outputs[1].tobytes()

    @pytest.mark.parametrize("shape", [np.nan, -1.0, 300.0], ids=["nan", "negative", "300"])
    def test_window_shape_checked_at_construction(self, shape):
        with pytest.raises(ValueError, match=r"\bwindow_shape\b"):
            MawSsConfig(8, 1024, 512, fft_size=1024, window_shape=shape)

    @pytest.mark.parametrize(
        "stft_kw", [{"p": 0.0}, {"fft_hop": 0}, {"fft_hop": 2048}, {"p": np.nan}, {"p": np.inf}],
        ids=["p", "hop-zero", "hop-past-frame", "p-nan", "p-inf"],
    )
    def test_stft_settings_checked_before_the_match(self, stft_kw):
        # checked when the config is built, so before maw_ss_cancel can run the match
        key = "p" if "p" in stft_kw else "fft_hop"
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            MawSsConfig(8, 1024, 512, fft_size=1024, **{"fft_hop": 512, **stft_kw})


class TestSpectralVsTimeDomain:
    def test_spectral_variant_wins_on_tonal_scene(self):
        # With the filter far shorter than the mic response, the time-domain
        # residual spreads into every band; rectified spectral subtraction
        # confines the damage and scores higher on the band-weighted SNR.
        import solocancel as sc

        fs = 44100
        n = 4 * fs
        rng = np.random.default_rng(7)
        s0 = AudioBuffer(0.1 * rng.standard_normal(n), fs)
        t = np.arange(n) / fs
        solo = AudioBuffer(0.1 * 10 ** (-6.02 / 20) * np.sqrt(2) * np.sin(2 * np.pi * 1000 * t), fs)
        scene = sc.synth_siso(
            sc.SceneConfig(
                solo=solo, accompaniment_reference=s0,
                mic_ir=sc.make_mic_ir(13.7, 606, seed=33),
                channel_delay=32, level_diff_db=6.02,
            )
        )
        cfg = BlockWienerConfig(128, 4096, 1024, interpolate=False)
        time_domain = sc.snrf(
            maw_cancel(scene.mixture, scene.reference, cfg), scene.reference_solo
        )
        spectral = sc.snrf(
            maw_ss_cancel(scene.mixture, scene.reference, cfg), scene.reference_solo
        )
        assert spectral > time_domain


class TestMatchedAccompaniment:
    def test_matches_cancel_identity(self):
        rng = np.random.default_rng(15)
        n = 5000
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, [0.2, 0.6])[:n]
        cfg = BlockWienerConfig(4, 1024, 256)
        y = matched_accompaniment(AudioBuffer(mix), AudioBuffer(ref), cfg)
        e = maw_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg)
        assert np.allclose(mix - y.samples, e.samples, atol=1e-15)


def slice_form_matched_accompaniment(mixture, reference, cfg):
    """Oracle: ``matched_accompaniment`` as it filtered each hop before, keeping ``span``
    samples of the full convolution of the hop's reference segment with the taps."""
    x = mixture.samples
    n = len(x)
    m, nblk, hop = cfg.taps, cfg.block_size, cfg.hop
    ref_pad = np.concatenate((np.zeros(m - 1), reference.samples, np.zeros(nblk)))
    x_pad = np.concatenate((x, np.zeros(nblk)))
    starts = range(0, n, hop)
    windows = np.lib.stride_tricks.sliding_window_view(ref_pad, m + nblk - 1)[:n:hop]
    blocks = np.lib.stride_tricks.sliding_window_view(x_pad, nblk)[:n:hop]
    stack = max(1, wiener._STACK_BYTES // (4 * m * (m + 1)))
    y = np.empty(n)
    w_prev = None
    for first in range(0, len(starts), stack):
        solved = wiener._solve_block(
            windows[first : first + stack], blocks[first : first + stack], m, cfg.regularization
        )
        for k, w in zip(starts[first : first + stack], solved):
            span = min(hop, n - k)
            seg = ref_pad[k : k + m + span - 1]
            y_new = np.convolve(seg, w)[m - 1 : m - 1 + span]
            if cfg.interpolate and w_prev is not None:
                y_old = np.convolve(seg, w_prev)[m - 1 : m - 1 + span]
                alpha = np.arange(1, span + 1) / hop
                y[k : k + span] = (1.0 - alpha) * y_old + alpha * y_new
            else:
                y[k : k + span] = y_new
            w_prev = w
    return AudioBuffer(y, mixture.sample_rate)


class TestMatchedAccompanimentFilterLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        taps=st.integers(1, 64),
        block_extra=st.integers(1, 200),
        hop_fraction=st.floats(0.0, 1.0),
        n=st.integers(1, 2000),
        interpolate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_valid_convolution_matches_the_slice_form(
        self, taps, block_extra, hop_fraction, n, interpolate, seed
    ):
        """The "valid" part of each hop's convolution is the slice the loop kept before,
        byte for byte."""
        block_size = taps + block_extra
        hop = max(1, round(hop_fraction * block_size))
        cfg = BlockWienerConfig(taps, block_size, hop, interpolate=interpolate)
        rng = np.random.default_rng(seed)
        ref = AudioBuffer(rng.standard_normal(n))
        mix = AudioBuffer(np.convolve(ref.samples, [0.7, -0.3])[:n] + 0.1 * rng.standard_normal(n))
        got = matched_accompaniment(mix, ref, cfg).samples
        assert got.tobytes() == slice_form_matched_accompaniment(mix, ref, cfg).samples.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, True], ids=["nan", "inf", "2.5", "True"])
@pytest.mark.parametrize("config,field", [
    (BlockWienerConfig, "taps"), (BlockWienerConfig, "block_size"), (BlockWienerConfig, "hop"),
    (MawSsConfig, "fft_size"), (MawSsConfig, "fft_hop"),
], ids=["taps", "block_size", "hop", "fft_size", "fft_hop"])
def test_integer_setting_checked_at_construction(config, field, bad):
    # a ValueError naming the field, not a TypeError once the blocks or frames are built
    settings = {"taps": 16, "block_size": 1024, "hop": 100, field: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            config(**settings)


def test_numpy_integer_settings_accepted():
    rng = np.random.default_rng(18)
    n = 5000
    ref = AudioBuffer(rng.standard_normal(n))
    mix = AudioBuffer(np.convolve(ref.samples, [0.5, 0.2])[:n] + 0.1 * rng.standard_normal(n))
    numpy_cfg = MawSsConfig(np.int64(16), np.int32(1024), np.int16(100),
                            fft_size=np.int64(1024), fft_hop=np.int64(256))
    cfg = MawSsConfig(16, 1024, 100, fft_size=1024, fft_hop=256)
    assert maw_ss_cancel(mix, ref, numpy_cfg).samples.tobytes() == (
        maw_ss_cancel(mix, ref, cfg).samples.tobytes()
    )


@pytest.mark.parametrize("taps", [0, 64])
def test_block_wiener_taps_outside_the_block_rejected(taps):
    # the mixture block holds 64 samples, so 1 <= taps <= 63
    block = AudioBuffer(np.ones(64))
    with pytest.raises(ValueError, match="taps"):
        block_wiener(AudioBuffer(np.ones(max(taps, 1) + 63)), block, taps)
