"""Sample-by-sample adaptive noise cancellation.

LMS/NLMS weight recursion driven by a reference signal, with optional
linear-prediction pre-whitening of the regressor and error inside the weight
update (the output error itself is never whitened). :func:`anc_cancel`
computes the per-sample recursion block-exact (Benesty & Duhamel 1992),
``_BLOCK_SAMPLES`` samples per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer, _check_counts, _check_reals, _require_finite, require_matched


def _levinson(r: np.ndarray, order: int) -> np.ndarray:
    """Levinson-Durbin solve of the autocorrelation normal equations.

    Returns predictor coefficients a such that x_hat(k) = sum a_p x(k-p).
    """
    a = np.zeros(order)
    err = r[0]
    for i in range(1, order + 1):
        if err <= 0.0:
            break
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        k_i = acc / err
        a[: i - 1] = a[: i - 1] - k_i * a[: i - 1][::-1]
        a[i - 1] = k_i
        err *= 1.0 - k_i * k_i
    return a


def fit_whitener(frame: AudioBuffer, order: int) -> np.ndarray:
    """Fit the prediction-error (whitening) filter [1, -a_1, ..., -a_P] on an analysis
    frame and return its predictor coefficients a_1..a_P (P = ``order``), a 1-D array.

    Uses the biased sample autocorrelation, so the resulting synthesis filter
    is minimum phase. An all-zero frame yields the identity whitener (a = 0), and a
    NaN or inf sample raises FloatingPointError.
    """
    _check_counts(order=order)
    x = frame.samples
    if len(x) <= 10 * order:
        raise ValueError(
            f"frame length {len(x)} too short for order {order} (need > {10 * order})"
        )
    _require_finite("frame", frame)
    n = len(x)
    # The biased autocorrelation at lags 0..order only, one dot product per lag.
    r = np.array([np.dot(x[lag:], x[: n - lag]) for lag in range(order + 1)]) / n
    return _levinson(r, order)


@dataclass
class AncConfig:
    """Settings for :func:`anc_cancel`.

    ``taps`` is the adaptive filter length M; ``normalized`` selects NLMS.
    When ``prewhiten`` is set, a prediction filter of order ``lp_order`` is
    refit on the trailing ``refresh_interval`` reference samples and applied
    to the regressor and error inside the weight update only.
    """

    taps: int
    mu: float
    normalized: bool = True
    prewhiten: bool = False
    lp_order: int = 15
    refresh_interval: int = 16384

    def __post_init__(self):
        _check_counts(taps=self.taps, lp_order=self.lp_order,
                      refresh_interval=self.refresh_interval)
        _check_reals(0, mu=self.mu)
        if self.prewhiten and self.refresh_interval <= 10 * self.lp_order:
            raise ValueError("refresh_interval must exceed 10 * lp_order")


#: Samples per step of the block-exact recursion in :func:`anc_cancel`.
_BLOCK_SAMPLES = 64


def _peak_window_energy(ref: np.ndarray, m: int) -> float:
    """Largest energy any length-m sliding window of ``ref`` attains."""
    csum = np.concatenate(([0.0], np.cumsum(ref**2)))
    if len(ref) <= m:
        return float(csum[-1])
    return float(np.max(csum[m:] - csum[:-m]))


class _BlockGram:
    """The update products of one block of the block-exact recursion.

    For the update regressors u_j = u[j : j + m] and filter windows
    v_k = v[k : k + m] of an L-sample block (len(u) = len(v) = L + m - 1),
    :meth:`weighted` gives B[k, j] = g_j u_j . v_k for j < k, 0 elsewhere.

    Each product is a sum of its own m terms, never a difference of running
    sums: a telescoped sum is accurate only relative to the block's largest
    product, and the NLMS step 1/||u||^2 magnifies that error. The terms
    u[c] v[c + k - j] of update j lie at the columns j <= c < j + m. Columns
    L - 1 .. m - 1 (when m >= L) are shared by every update, so one
    correlation sums them for every lag k - j; the other columns, at most
    2L - 2 of them, go through one banded matrix product.
    """

    def __init__(self, m: int, block: int):
        self.m = m
        self.block = block
        cols = np.r_[0 : block - 1, max(m, block - 1) : block + m - 1]
        j = np.arange(block - 1)[:, None]
        self.cols = cols
        self.band = ((j <= cols) & (cols < j + m)).astype(np.float64)
        # v[c + lag], clipped at the block's end: a clipped entry meets only a zero
        # band weight or a lag past the block.
        self.hankel = cols[:, None] + np.arange(block)
        # B[k, j] reads the sum of update j at lag k - j; row L - 1 stays 0 for k <= j.
        k, j = np.indices((block, block))
        self.skew = np.where(k > j, j * block + k - j, (block - 1) * block)
        self.sums = np.zeros((block, block))  # [update j, lag]

    def weighted(self, u: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        """B for the block's samples ``u``, ``v`` and steps ``g``."""
        m, block = self.m, self.block
        sums = self.sums[:-1]
        np.matmul(self.band * u[self.cols], v.take(self.hankel, mode="clip"), out=sums)
        if m >= block:
            sums += np.correlate(v[block - 1 : m + block - 1], u[block - 1 : m], "valid")
        sums *= g[:-1, None]
        return self.sums.take(self.skew)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run raises below instead
def anc_cancel(mixture: AudioBuffer, reference: AudioBuffer, cfg: AncConfig) -> AudioBuffer:
    """Run the full adaptive recursion over a recording.

    Returns the error sequence e(k) = x(k) - w(k) . n0(k), which is the solo
    estimate. The filter is causal on the reference; no latency is added.
    Raises FloatingPointError when the recursion diverges to a non-finite
    estimate.

    The per-sample recursion is computed block-exact (Benesty & Duhamel, "A
    fast exact least mean square adaptive algorithm", IEEE TSP 40(12), 1992),
    ``_BLOCK_SAMPLES`` samples at a time. A block from sample k0 with weights w0
    has the errors e = d - B e_u, where d = x - w0 . v_k, the update error
    e_u = A e - h is e passed through the whitener (A the unit-lower Toeplitz
    matrix of [1, -a_1, ..., -a_p], h the part carried over from errors before
    k0; A = I and h = 0 without whitening), and B[k, j] = g_j u_j . v_k for
    j < k, with g_j the step (mu / ||u_j||^2 above the guard floor, 0 below
    it, or mu for LMS). One unit-lower triangular solve of
    (I + B A) e = d + B h gives the block's errors, then
    w = w0 + sum_j g_j e_u,j u_j. A whitener refit starts a new block.
    """
    from scipy.linalg import blas  # here, not at the top: importing it dominates package start-up

    require_matched(mixture, reference)
    x = mixture.samples
    ref = reference.samples
    n = len(x)
    m = cfg.taps
    block = _BLOCK_SAMPLES

    pw = cfg.prewhiten
    p = cfg.lp_order if pw else 0
    pad = max(m - 1, p)
    # Every block is computed whole: rows past the end of a span have d = 0 and
    # a zero step, and their errors are dropped.
    rp = np.concatenate((np.zeros(pad), ref, np.zeros(block)))
    # The update regressor's samples: the whitened reference, same padding as rp.
    up = np.zeros(pad + n + block) if pw else rp
    w = np.zeros(m)  # oldest-first, matching the window slices below
    ep = np.zeros(p + n)  # the errors after p samples of zero history
    gram = _BlockGram(m, block)
    ones = np.ones(m)

    # NLMS guard: skip the update while the regressor norm is zero or
    # vanishing relative to the loudest window in the whole recording, else a
    # faded-in reference turns 1/||n0||^2 into a divergent step. Relative, so
    # the guard is invariant under common scaling of the inputs.
    if cfg.normalized:
        nsq_floor = 1e-10 * _peak_window_energy(ref, m)
    else:
        nsq_floor = 0.0

    a = np.zeros(p)  # identity whitener until the first refit
    span = cfg.refresh_interval if pw else max(n, 1)
    for s0 in range(0, n, span):  # one whitener per span
        s1 = min(s0 + span, n)
        if pw and s0 > 0:
            a = fit_whitener(AudioBuffer(ref[s0 - span : s0], reference.sample_rate), p)
        inverse = np.concatenate(([1.0], -a))  # the whitening filter
        if pw:  # p >= 1: [p:-p] drops the p-sample warm-up and tail of the full convolution
            up[pad + s0 : pad + s1] = np.convolve(rp[pad + s0 - p : pad + s1], inverse)[p:-p]
        # Row k of [-H | A] whitens the errors k0 - p .. k0 + k, so h = H e_{k0-p..k0-1}.
        zeros = np.zeros(block - 1)
        coeffs = np.concatenate((zeros, inverse[::-1], zeros))
        rows = np.ascontiguousarray(sliding_window_view(coeffs, p + block)[::-1])
        carry, lower = rows[:, :p], rows[:, p:]
        for k0 in range(s0, s1, block):
            live = min(block, s1 - k0)
            v = rp[pad + k0 - m + 1 : pad + k0 + block]
            u = up[pad + k0 - m + 1 : pad + k0 + block]
            g = np.zeros(block)
            if cfg.normalized:
                nsq = np.correlate(u[: live + m - 1] ** 2, ones, "valid")
                np.divide(cfg.mu, nsq, out=g[:live], where=nsq > nsq_floor)
            else:
                g[:live] = cfg.mu
            d = np.zeros(block)
            d[:live] = x[k0 : k0 + live] - np.correlate(v[: live + m - 1], w, "valid")
            b = gram.weighted(u, v, g)
            # (I + B A) e = d + B h, the unit diagonal implied; read in Fortran order the
            # C-ordered B A is its transpose, so solve with that one transposed.
            if pw:
                h = -(carry @ ep[k0 : k0 + p])
                e = blas.dtrsv((b @ lower).T, d + b @ h, lower=0, trans=1, diag=1)
                e_u = lower @ e - h
            else:  # A = I and h = 0; adding 0.0 turns a -0 of d into +0, as B h did
                e = e_u = blas.dtrsv(b.T, d + 0.0, lower=0, trans=1, diag=1)
            ep[p + k0 : p + k0 + live] = e[:live]
            w += np.correlate(u[: live + m - 1], g[:live] * e_u[:live], "valid")
    out = ep[p:]
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("adaptive filter diverged: the estimate is not finite")
    return AudioBuffer(out, mixture.sample_rate)

