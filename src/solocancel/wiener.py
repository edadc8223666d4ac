"""Block Wiener filtering by the covariance method, plus spectral subtraction.

Each block solves the sample normal equations (R + loading) w = p, where R is
the M x M covariance-method matrix of the reference over the N block samples
and p its cross-correlation with the mixture block. The first row of R and p
come from one FFT cross-correlation; the rest of R follows from a recursion
along its diagonals (Makhoul 1975), in O(M^2) instead of the O(M^2 N) of
forming the M x N data matrix. The blocks are solved in stacks: one pass of
the recursion builds every matrix of a stack, each stored in the memory
order LAPACK's Cholesky factorization reads, which then factors it in place.
The matched accompaniment w * s0 is subtracted either per sample (maw_cancel)
or per STFT bin after a magnitude comparison (maw_ss_cancel), whose frame map
is ``spectral_subtract`` inside the package's one weighted overlap-add
pipeline (``stft._wola``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpotrf, dpotrs

from .audio import AudioBuffer, FirFilter, require_matched
from .errors import SolverError
from .stft import Window, _framing, _wola


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
        if self.taps < 1:
            raise ValueError("taps must be >= 1")
        if self.taps >= self.block_size:
            raise ValueError("taps must be smaller than block_size")
        if not 0 < self.hop <= self.block_size:
            raise ValueError("hop must satisfy 0 < hop <= block_size")
        if not self.regularization >= 0:
            raise ValueError("regularization must be >= 0")


#: Bytes of covariance matrices that ``matched_accompaniment`` builds and solves
#: in one stack: two 1023-tap matrices, the footprint of one matrix plus the
#: factor copy ``cho_factor`` would make, so stacking adds no peak memory.
_STACK_BYTES = 16 * 2**20


def _solve_block(ref_window: np.ndarray, block: np.ndarray, taps: int, reg: float) -> np.ndarray:
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
    of the stacked solve that ``matched_accompaniment`` runs.
    """
    n = len(mixture_block)
    if taps < 1 or taps >= n:
        raise ValueError("need 1 <= taps < block length")
    if len(reference_window) != taps + n - 1:
        raise ValueError(
            f"reference window must hold taps + N - 1 = {taps + n - 1} samples, "
            f"got {len(reference_window)}"
        )
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
    of at most ``_STACK_BYTES`` of covariance matrices.
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
    stack = max(1, _STACK_BYTES // (8 * m * m))

    y = np.empty(n)
    w_prev: np.ndarray | None = None
    for first in range(0, len(starts), stack):
        solved = _solve_block(
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

    |E| = (|X|^p - |Y|^p)^(1/p) where |X| > |Y| and 0 elsewhere; the phase of
    X is kept. Works on single frames or stacks of frames.
    """
    if not p > 0:
        raise ValueError("p must be > 0")
    spec_x = np.asarray(spec_x, dtype=np.complex128)
    spec_y = np.asarray(spec_y, dtype=np.complex128)
    if spec_x.shape != spec_y.shape:
        raise ValueError("spectra must have identical shapes")
    ax = np.abs(spec_x)
    ay = np.abs(spec_y)
    # Computed in place on every bin, then overwritten: the bins where |X| <= |Y|
    # may give NaN or negative magnitudes here, and all of them are zeroed.
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = ax**p
        mag -= ay**p
        mag **= 1.0 / p
        np.minimum(mag, ax, out=mag)  # guard rounding above |X|
        out = spec_x / ax
        out *= mag
    out[~(ax > ay)] = 0.0
    np.copyto(out, spec_x, where=ay == 0.0)
    return out


def maw_ss_cancel(
    mixture: AudioBuffer,
    reference: AudioBuffer,
    cfg: BlockWienerConfig,
    fft_size: int = 4096,
    fft_hop: int | None = None,
    window: Window | None = None,
    p: float = 2.0,
) -> AudioBuffer:
    """Block Wiener matching with subtraction performed in the STFT domain.

    The matched accompaniment is computed exactly as in :func:`maw_cancel`,
    then removed per frame with :func:`spectral_subtract` and resynthesized
    by weighted overlap-add. ``fft_hop`` None is half of ``fft_size`` and ``window``
    None the default window. The STFT settings are checked (``ValueError``) before
    the block-Wiener match runs.
    """
    window, fft_hop = _framing(fft_size, fft_hop, window)
    if not p > 0:
        raise ValueError("p must be > 0")
    y = matched_accompaniment(mixture, reference, cfg)
    return _wola(partial(spectral_subtract, p=p), (mixture, y), window, fft_hop)
