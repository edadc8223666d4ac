"""Block Wiener filtering by the covariance method, plus spectral subtraction.

Each block solves the sample normal equations (R + loading) w = p, where R is
the M x M covariance-method matrix of the reference over the N block samples
and p its cross-correlation with the mixture block. The first row of R and p
come from one FFT cross-correlation; the rest of R follows from a recursion
along its diagonals (Makhoul 1975), in O(M^2) instead of the O(M^2 N) of
forming the M x N data matrix. The matched accompaniment w * s0 is subtracted
either per sample (maw_cancel) or per STFT bin after a magnitude comparison
(maw_ss_cancel), whose frame map is ``spectral_subtract`` inside the package's
one weighted overlap-add pipeline (``stft._wola``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.fft
import scipy.linalg

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


def _solve_block(ref_window: np.ndarray, block: np.ndarray, taps: int, reg: float) -> np.ndarray:
    """Wiener-Hopf solve on one block.

    ``ref_window`` holds the M + N - 1 reference samples ending with the
    block; returns the M optimal taps. A silent reference window yields the
    zero filter (the normal equations vanish identically).

    With s = ``ref_window`` and a = M - 1, R[i, j] = sum_t s[a+t-i] s[a+t-j]
    over the N block samples t. Row 0 of R and p are correlations of s with
    the in-block segment s[a:a+N] and with the block; the rest of the upper
    triangle, the only part Cholesky reads, follows from
    R[i+1, j+1] = R[i, j] + s[a-i-1] s[a-j-1] - s[a-i+N-1] s[a-j+N-1].
    """
    n = len(block)
    a = taps - 1
    size = scipy.fft.next_fast_len(taps + n - 1, real=True)  # long enough that no lag wraps
    spec = scipy.fft.rfft(ref_window, size)
    segments = scipy.fft.rfft(np.stack((ref_window[a : a + n], block)), size)
    first_row, cross = scipy.fft.irfft(spec * segments.conj(), size)[:, a::-1]
    cov = np.zeros((taps, taps))
    cov[0] = first_row
    entering = ref_window[:a][::-1]
    leaving = ref_window[n : a + n][::-1]
    for i in range(a):
        cov[i + 1, i + 1 :] = cov[i, i:a] + entering[i] * entering[i:] - leaving[i] * leaving[i:]
    cov /= n
    cross /= n
    trace = float(np.trace(cov))
    if trace <= 0.0:
        return np.zeros(taps)
    if reg > 0.0:
        cov[np.diag_indices_from(cov)] += reg * trace / taps
    try:
        factor = scipy.linalg.cho_factor(cov, check_finite=False)
        return scipy.linalg.cho_solve(factor, cross, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "sample covariance is singular; retry with regularization > 0"
        ) from exc


def block_wiener(
    reference_window: AudioBuffer,
    mixture_block: AudioBuffer,
    taps: int,
    regularization: float = 1e-8,
) -> FirFilter:
    """Optimal FIR filter matching the reference to one mixture block.

    ``reference_window`` must hold taps + N - 1 samples, where N is the
    mixture block length: the N in-block samples preceded by the taps - 1
    samples of left context the convolution needs.
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
    previous block's filter across each hop.
    """
    require_matched(mixture, reference)
    x = mixture.samples
    n = len(x)
    m, nblk, hop = cfg.taps, cfg.block_size, cfg.hop
    ref_pad = np.concatenate((np.zeros(m - 1), reference.samples, np.zeros(nblk)))
    x_pad = np.concatenate((x, np.zeros(nblk)))

    y = np.empty(n)
    w_prev: np.ndarray | None = None
    for k in range(0, n, hop):
        w = _solve_block(
            ref_pad[k : k + m + nblk - 1], x_pad[k : k + nblk], m, cfg.regularization
        )
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
