"""Block Wiener filtering by the covariance method, plus spectral subtraction.

Each block solves the sample normal equations (R + loading) w = p, where R is
the M x M covariance-method matrix of the reference over the N block samples
and p its cross-correlation with the mixture block. The first column of R
and p come from one FFT cross-correlation. R is never formed: R minus its
shift down one row and one column has rank 4, and the generalized Schur
algorithm (Kailath & Sayed, "Displacement structure: theory and
applications", SIAM Review 37(3), 1995) computes the Cholesky factor of R
from that difference's four generator columns in O(M^2), where forming the
M x N data matrix would cost O(M^2 N) and a dense Cholesky factorization
O(M^3). Chandrasekaran & Sayed ("Stabilizing the generalized Schur
algorithm", SIAM J. Matrix Anal. Appl. 17(4), 1996) analyse its rounding.
The blocks are factored in stacks, one Schur step for every block of a stack
at once. The matched accompaniment w * s0 is subtracted either per sample
(maw_cancel) or per STFT bin after a magnitude comparison (maw_ss_cancel),
whose frame map is ``spectral_subtract`` inside the package's one weighted
overlap-add pipeline (``stft._wola``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import (
    AudioBuffer, FirFilter, _check_counts, _check_reals, _require_finite, require_matched,
)
from .errors import SolverError
from .stft import _framing, _wola


@dataclass
class BlockWienerConfig:
    """Block Wiener settings: filter length M, block size N, hop L.

    ``regularization`` scales diagonal loading relative to the mean diagonal
    of the sample covariance; ``interpolate`` crossfades the taps linearly
    between consecutive blocks to avoid clicks at block boundaries.
    """

    taps: int
    block_size: int
    hop: int
    regularization: float = 1e-8
    interpolate: bool = True

    def __post_init__(self):
        _check_counts(taps=self.taps, block_size=self.block_size, hop=self.hop)
        if self.taps >= self.block_size:
            raise ValueError("taps must be smaller than block_size")
        if self.hop > self.block_size:
            raise ValueError("hop must satisfy 0 < hop <= block_size")
        _check_reals(0, regularization=self.regularization)


@dataclass
class MawSsConfig(BlockWienerConfig):
    """Settings for :func:`maw_ss_cancel`: the block Wiener match, then the STFT-domain
    subtraction's p-norm and frames, ``fft_size`` long, KBD(``window_shape``)-windowed,
    ``fft_hop`` apart (None: half the frame), checked at construction (``ValueError``)."""

    fft_size: int = 4096
    fft_hop: int | None = None
    window_shape: float = 4.0
    p: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        try:
            self.fft_hop = _framing(self.fft_size, self.fft_hop, self.window_shape)
        except ValueError as exc:  # named apart from the block hop
            raise ValueError(f"fft_size/fft_hop/window_shape: {exc}") from exc
        _check_reals(0, True, p=self.p)


#: Bytes of packed Cholesky factors, 4 M (M + 1) per block, that
#: ``matched_accompaniment`` computes in one stack: four 1023-tap or sixteen
#: 511-tap factors, about the two M x M matrices a one-block solve by LAPACK's
#: full-storage Cholesky would hold.
_STACK_BYTES = 16 * 2**20

# Each Schur step maps the generator rows (u, e, v, l) to
#   u' = ch (c1 u + s1 e) - sh (c2 v + s2 l),   e' = c1 e - s1 u,
#   v' = ch (c2 v + s2 l) - sh (c1 u + s1 e),   l' = c2 l - s2 v,
# with (c1, s1) and (c2, s2) the Givens rotations that zero the top of e and of l
# and (ch, sh) the hyperbolic rotation that zeroes the top of v. Each entry of that
# 4 x 4 matrix is the product of two entries of the row [ch, -sh, 1, -1, 0, c1, s1,
# c2, s2], gathered by these indices.
_THETA = np.array([
    [[0, 0, 1, 1], [3, 2, 4, 4], [1, 1, 0, 0], [4, 4, 3, 2]],
    [[5, 6, 7, 8], [6, 5, 8, 7], [5, 6, 7, 8], [6, 5, 8, 7]],
])
# |(u, e)| and |(v, l)| to their difference and sum, |(u, e)| and -|(v, l)|
_HYPERBOLIC = np.array([[1.0, 1.0, 1.0, 0.0], [-1.0, 1.0, 0.0, -1.0]])
#: Stacks of at most this many blocks build each step's rotations from Python floats,
#: where the ten numpy calls of the vectorized build cost more than the arithmetic.
_SCALAR_STACK = 7


def _scalar_theta(top: list, norm: list, out: np.ndarray) -> bool:
    """Write one Schur step's rotations into the stack's flat θ ``out`` from Python floats.

    ``top`` holds each block's top pairs [(u, e), (v, l)] and ``norm`` their ``np.hypot``
    norms, as lists. Each entry is the IEEE quotient or product of the vectorized build.
    Returns False, writing nothing, unless every block has 0 <= |(v, l)| < |(u, e)| < inf
    and a non-zero sqrt(|(u, e)|^2 - |(v, l)|^2): elsewhere Python would raise on a zero
    divisor, and the vectorized build follows numpy's inf and NaN into the same rotations
    or ``SolverError``.
    """
    half = 0.5**0.5  # a zero pair needs no rotation, so any will do: 45 degrees
    theta = []
    for ((u, e), (v, l)), (n1, n2) in zip(top, norm):
        if not n2 < n1 < math.inf:
            return False
        root = math.sqrt((n1 - n2) * (n1 + n2))
        if root == 0.0:  # the product underflowed
            return False
        c1, s1 = u / n1, e / n1
        c2, s2 = (v / n2, l / n2) if n2 else (half, half)
        ch, msh = n1 / root, (0.0 - n2) / root  # ch, -sh; 0 - 0 is +0, as in the matmul
        theta += (
            ch * c1, ch * s1, msh * c2, msh * s2,
            -s1, c1, 0.0 * s2, 0.0 * c2,
            msh * c1, msh * s1, ch * c2, ch * s2,
            0.0 * s1, 0.0 * c1, -s2, c2,
        )
    out[:] = theta
    return True


def _solve_block(ref_window: np.ndarray, block: np.ndarray, taps: int, reg: float) -> np.ndarray:
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
    # Each window and block is scaled by the power of two that brings its largest magnitude
    # into [1/2, 1): exact, and R and p then neither underflow nor overflow at any level.
    shift = np.frexp([np.maximum(z.max(axis=1), -z.min(axis=1)) for z in (windows, blocks)])[1]
    for b, (window, blk, (sw, sb)) in enumerate(zip(windows, blocks, shift.T.tolist())):
        window, blk = np.ldexp(window, -sw), np.ldexp(blk, -sb)
        spec = scipy.fft.rfft(window, size)
        segments = scipy.fft.rfft(np.stack((window[a : a + n], blk)), size)
        gen[b, 0], cross[b] = scipy.fft.irfft(spec * segments.conj(), size)[:, a::-1]
        gen[b, 1, 1:], gen[b, 3, 1:] = window[:a][::-1], window[n : a + n][::-1]
    # R[i, i] - R[0, 0], the sum over 0 < j <= i of e[j]^2 - l[j]^2
    diagonal = np.cumsum(gen[:, 1] ** 2 - gen[:, 3] ** 2, axis=1)
    trace = taps * gen[:, 0, 0] + diagonal.sum(axis=1)
    silent = trace <= 0.0
    gen[:, 0, 0] += reg * trace / taps
    gen[silent] = 0.0
    gen[silent, 0, 0] = 1.0  # the generator of I: no NaN, and no solve below
    factor = np.empty((count, taps * (taps + 1) // 2))  # L, column-major packed
    spare = np.empty_like(gen)  # each step's rotated generator, apart from its operand
    row = np.zeros((count, 9))
    row[:, 2:4] = 1.0, -1.0
    rot = row[:, 5:].reshape(count, 2, 2)  # (c1, s1), (c2, s2)
    theta = np.empty((count, 4, 4))
    flat_theta = theta.reshape(-1)
    scalar = count <= _SCALAR_STACK
    start = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # singular blocks and zero pairs
        gen[:, 0] /= np.sqrt(gen[:, 0, :1])
        gen[:, 2, 1:] = gen[:, 0, 1:]
        for k in range(taps):
            top = gen[:, :, k].reshape(count, 2, 2)  # (u, e), (v, l)
            norm = np.hypot(top[:, :, 0], top[:, :, 1])
            if not (scalar and _scalar_theta(top.tolist(), norm.tolist(), flat_theta)):
                np.divide(top, norm[:, :, None], out=rot)
                # a zero pair needs no rotation, so any will do: 0/0 becomes 45 degrees
                np.copyto(rot, 0.5**0.5, where=rot != rot)
                # ch and -sh: 1 and -rho over sqrt(1 - rho^2). Where |(v, l)| is 0 the
                # product gives +0 for -sh, not -0; theta only enters the matmul below,
                # whose sums start from +0, so the generator keeps its bytes.
                terms = norm @ _HYPERBOLIC
                np.divide(terms[:, 2:], np.sqrt(terms[:, :1] * terms[:, 1:2]), out=row[:, :2])
                factors = row.take(_THETA, axis=1)
                np.multiply(factors[:, 0], factors[:, 1], out=theta)
            np.matmul(theta, gen[:, :, k:], out=spare[:, :, k:])
            gen, spare = spare, gen
            factor[:, start : start + taps - k] = gen[:, 0, k:]
            gen[:, 0, k + 1 :] = gen[:, 0, k:-1]  # shift u down one row
            start += taps - k
    pivots = factor[:, np.cumsum(np.arange(taps + 1, 1, -1)) - taps - 1]  # diagonal of L
    if not np.all((pivots > 0.0) & (pivots < np.inf), axis=1)[~silent].all():
        raise SolverError("sample covariance is singular; retry with regularization > 0")
    w = np.zeros((count, taps))
    for b in np.flatnonzero(~silent):
        w[b] = dpptrs(taps, factor[b], cross[b, :, None], lower=1)[0][:, 0]
    w = np.ldexp(w, (shift[1] - shift[0])[:, None])  # the taps of the unscaled block
    return w if np.ndim(block) == 2 else w[0]


def block_wiener(
    reference_window: AudioBuffer,
    mixture_block: AudioBuffer,
    taps: int,
    regularization: float = 1e-8,
) -> FirFilter:
    """Optimal FIR filter matching the reference to one mixture block.

    ``reference_window`` must hold taps + N - 1 samples, where N is the
    mixture block length: the N in-block samples preceded by the taps - 1
    samples of left context the convolution needs. It is the one-block case
    of the stacked generalized Schur solve that ``matched_accompaniment``
    runs. A NaN or inf sample raises ``FloatingPointError``.
    """
    n = len(mixture_block)
    BlockWienerConfig(taps, n, n, regularization)  # taps and regularization by its rules
    if len(reference_window) != taps + n - 1:
        raise ValueError(
            f"reference window must hold taps + N - 1 = {taps + n - 1} samples, "
            f"got {len(reference_window)}"
        )
    _require_finite("reference window/mixture block", reference_window, mixture_block)
    w = _solve_block(reference_window.samples, mixture_block.samples, taps, regularization)
    return FirFilter(w)


def matched_accompaniment(
    mixture: AudioBuffer, reference: AudioBuffer, cfg: BlockWienerConfig
) -> AudioBuffer:
    """The block-Wiener estimate y(k) = w(k) * s0(k) of the accompaniment.

    A new filter is solved every ``hop`` samples k on the N mixture samples
    from k onward and the taps + N - 1 reference samples that feed them
    (zero-padded before the signal start and after its end). The solve thus
    looks N samples ahead of the samples it filters: a block-length latency
    in live use. With ``interpolate`` the taps blend linearly from the
    previous block's filter across each hop. The blocks are solved in stacks
    whose packed Cholesky factors fit in ``_STACK_BYTES``.
    """
    require_matched(mixture, reference)
    x = mixture.samples
    n = len(x)
    m, nblk, hop = cfg.taps, cfg.block_size, cfg.hop
    ref_pad = np.concatenate((np.zeros(m - 1), reference.samples, np.zeros(nblk)))
    x_pad = np.concatenate((x, np.zeros(nblk)))

    starts = range(0, n, hop)  # one window and block per start, views into the padding
    windows = sliding_window_view(ref_pad, m + nblk - 1)[:n:hop]
    blocks = sliding_window_view(x_pad, nblk)[:n:hop]
    stack = max(1, _STACK_BYTES // (4 * m * (m + 1)))

    y = np.empty(n)
    w_prev: np.ndarray | None = None
    for first in range(0, len(starts), stack):
        solved = _solve_block(
            windows[first : first + stack], blocks[first : first + stack], m, cfg.regularization
        )
        for k, w in zip(starts[first : first + stack], solved):
            span = min(hop, n - k)
            seg = ref_pad[k : k + m + span - 1]
            y_new = np.convolve(seg, w, "valid")
            if cfg.interpolate and w_prev is not None:
                y_old = np.convolve(seg, w_prev, "valid")
                alpha = np.arange(1, span + 1) / hop
                y[k : k + span] = (1.0 - alpha) * y_old + alpha * y_new
            else:
                y[k : k + span] = y_new
            w_prev = w
    return AudioBuffer(y, mixture.sample_rate)


def maw_cancel(
    mixture: AudioBuffer, reference: AudioBuffer, cfg: BlockWienerConfig
) -> AudioBuffer:
    """Moving-average Wiener cancellation with time-domain subtraction.

    The first ``hop`` output samples are produced before any block statistics
    exist and should be treated as warm-up.
    """
    y = matched_accompaniment(mixture, reference, cfg)
    return AudioBuffer(mixture.samples - y.samples, mixture.sample_rate)


def spectral_subtract(spec_x: np.ndarray, spec_y: np.ndarray, p: float) -> np.ndarray:
    """Per-bin magnitude subtraction with half-wave rectification.

    |E| = (|X|^p - |Y|^p)^(1/p) where |X| > |Y| and 0 elsewhere; the phase of X is
    kept. Works on single frames or stacks of frames; finite spectra give a finite E. The
    magnitude is clamped to |X| (at p = 1 it is |X| - |Y|, which needs neither powers nor
    clamp), but E's parts round again: |E| can exceed |X| by an ulp.
    """
    _check_reals(0, True, p=p)
    spec_x = np.asarray(spec_x, dtype=np.complex128)
    spec_y = np.asarray(spec_y, dtype=np.complex128)
    if spec_x.shape != spec_y.shape:
        raise ValueError("spectra must have identical shapes")
    # Computed in place on every bin, then overwritten: bins where |X| <= |Y| may give NaN
    # or negative magnitudes, all zeroed. A subnormal |X| or an overflowing |X| or power leave
    # a bin (and so the sum) non-finite; it is redone on X, Y scaled by a power of two (exact).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ax = np.abs(spec_x)
        ay = np.abs(spec_y)
        if p == 1.0:  # the bytes of the general path: x**1 is x, and ax - ay <= ax
            mag = ax - ay
        else:
            mag = ax**p
            mag -= ay**p
            mag **= 1.0 / p
            np.minimum(mag, ax, out=mag)  # the magnitude, not |E|, is at most |X|
        out = spec_x / ax
        out *= mag
        np.copyto(out, 0.0, where=~(ax > ay))
        np.copyto(out, spec_x, where=ay == 0.0)
        if not np.isfinite(out.sum()):
            redo = ~np.isfinite(out) & np.isfinite(spec_x)
            top = np.maximum(abs(spec_x.real), abs(spec_x.imag))[redo]
            shift = np.repeat(np.frexp(top)[1] + 1, 2)  # per part: X's larger into [1/4, 1/2)
            x, y = (np.ldexp(z[redo].view(float), -shift).view(complex) for z in (spec_x, spec_y))
            out[redo] = np.ldexp(spectral_subtract(x, y, p).view(float), shift).view(complex)
    return out


def maw_ss_cancel(
    mixture: AudioBuffer, reference: AudioBuffer, cfg: BlockWienerConfig
) -> AudioBuffer:
    """Block Wiener matching with subtraction performed in the STFT domain.

    The matched accompaniment is computed exactly as in :func:`maw_cancel`,
    then removed per frame with :func:`spectral_subtract` and resynthesized
    by weighted overlap-add. A plain ``BlockWienerConfig`` runs with
    ``MawSsConfig``'s STFT defaults.
    """
    if not isinstance(cfg, MawSsConfig):
        cfg = MawSsConfig(**vars(cfg))
    y = matched_accompaniment(mixture, reference, cfg)
    subtract = partial(spectral_subtract, p=cfg.p)
    return _wola(subtract, (mixture, y), cfg.fft_size, cfg.fft_hop, cfg.window_shape)
