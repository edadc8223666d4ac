"""Sample-by-sample adaptive noise cancellation.

LMS/NLMS weight recursion driven by a reference signal, with optional
linear-prediction pre-whitening of the regressor and error inside the weight
update (the output error itself is never whitened).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, require_matched


@dataclass
class LmsState:
    """Adaptive filter state: weights, reference delay line (newest first),
    step size, and the running sample index."""

    weights: np.ndarray
    delay_line: np.ndarray
    mu: float
    normalized: bool = False
    k: int = 0

    @classmethod
    def create(cls, taps: int, mu: float, normalized: bool = False) -> "LmsState":
        if taps < 1:
            raise ValueError("taps must be >= 1")
        if mu < 0:
            raise ValueError("mu must be >= 0")
        return cls(np.zeros(taps), np.zeros(taps), float(mu), normalized)

    @property
    def taps(self) -> int:
        return self.weights.shape[0]


def lms_step(state: LmsState, x_k: float, n0_k: float) -> tuple[LmsState, float]:
    """Advance the recursion by one sample.

    Shifts ``n0_k`` into the delay line, forms y = w . n0, emits the error
    e = x_k - y, and updates the weights with mu * n0 * e (LMS) or
    mu * n0 / ||n0||^2 * e (NLMS; skipped while the delay line is all zero).
    Mutates ``state`` and returns it along with the error sample.
    """
    if not (np.isfinite(x_k) and np.isfinite(n0_k)):
        raise ValueError("input samples must be finite")
    dl = state.delay_line
    dl[1:] = dl[:-1]
    dl[0] = n0_k
    y = float(np.dot(state.weights, dl))
    e = float(x_k) - y
    if state.mu != 0.0:
        if state.normalized:
            nsq = float(np.dot(dl, dl))
            if nsq > 0.0:
                state.weights += (state.mu * e / nsq) * dl
        else:
            state.weights += (state.mu * e) * dl
    state.k += 1
    return state, e


@dataclass
class Whitener:
    """Linear-prediction inverse filter v = [1, -a_1, ..., -a_P]."""

    order: int
    coeffs: np.ndarray  # predictor coefficients a_p, length order

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.order,):
            raise ValueError("coeffs must have length == order")

    @property
    def inverse_filter(self) -> np.ndarray:
        return np.concatenate(([1.0], -self.coeffs))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Filter a sequence through the inverse (whitening) filter."""
        return np.convolve(x, self.inverse_filter)[: len(x)]


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
        a_new = a.copy()
        a_new[i - 1] = k_i
        if i > 1:
            a_new[: i - 1] = a[: i - 1] - k_i * a[i - 2 :: -1]
        a = a_new
        err *= 1.0 - k_i * k_i
    return a


def fit_whitener(frame: AudioBuffer, order: int) -> Whitener:
    """Fit a prediction-error (whitening) filter on an analysis frame.

    Uses the biased sample autocorrelation, so the resulting synthesis filter
    is minimum phase. An all-zero frame yields the identity whitener (a = 0).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    x = frame.samples
    if len(x) <= 10 * order:
        raise ValueError(
            f"frame length {len(x)} too short for order {order} (need > {10 * order})"
        )
    r = np.correlate(x, x, mode="full")[len(x) - 1 : len(x) + order] / len(x)
    if r[0] <= 0.0:
        return Whitener(order, np.zeros(order))
    return Whitener(order, _levinson(r, order))


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
        if self.taps < 1:
            raise ValueError("taps must be >= 1")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.prewhiten:
            if self.lp_order < 1:
                raise ValueError("lp_order must be >= 1")
            if self.refresh_interval <= 10 * self.lp_order:
                raise ValueError("refresh_interval must exceed 10 * lp_order")


def _peak_window_energy(ref: np.ndarray, m: int) -> float:
    """Largest energy any length-m sliding window of ``ref`` attains."""
    csum = np.concatenate(([0.0], np.cumsum(ref**2)))
    if len(ref) <= m:
        return float(csum[-1])
    return float(np.max(csum[m:] - csum[:-m]))


def anc_cancel(mixture: AudioBuffer, reference: AudioBuffer, cfg: AncConfig) -> AudioBuffer:
    """Run the full adaptive recursion over a recording.

    Returns the error sequence e(k) = x(k) - w(k) . n0(k), which is the solo
    estimate. The filter is causal on the reference; no latency is added.
    """
    require_matched(mixture, reference)
    x = mixture.samples
    ref = reference.samples
    n = len(x)
    m = cfg.taps
    mu = cfg.mu

    pw = cfg.prewhiten
    p = cfg.lp_order if pw else 0
    pad = max(m - 1, p)
    rp = np.concatenate((np.zeros(pad), ref))
    w = np.zeros(m)  # oldest-first, matching the window slices below
    out = np.empty(n)

    # NLMS guard: skip the update while the regressor norm is zero or
    # vanishing relative to the loudest window in the whole recording, else a
    # faded-in reference turns 1/||n0||^2 into a divergent step. Relative, so
    # the guard is invariant under common scaling of the inputs.
    if cfg.normalized:
        nsq_floor = 1e-10 * _peak_window_energy(ref, m)
    else:
        nsq_floor = 0.0

    if pw:
        a = np.zeros(p)  # identity whitener until the first refit
        wp = np.zeros(pad + n)  # whitened reference, same padding as rp
        e_hist = np.zeros(p)  # past raw errors, newest first
    for k in range(n):
        if pw and k > 0 and k % cfg.refresh_interval == 0:
            seg = AudioBuffer(ref[k - cfg.refresh_interval : k], reference.sample_rate)
            a = fit_whitener(seg, p).coeffs
        win = rp[pad + k - m + 1 : pad + k + 1]
        e = x[k] - np.dot(w, win)
        out[k] = e
        # The update's regressor and error: the window and the raw error, or
        # both passed through the whitener.
        u, e_u = win, e
        if pw:
            wp[pad + k] = rp[pad + k] - np.dot(a, rp[pad + k - p : pad + k][::-1])
            u = wp[pad + k - m + 1 : pad + k + 1]
            e_u = e - np.dot(a, e_hist)
            e_hist[1:] = e_hist[:-1]
            e_hist[0] = e
        if mu != 0.0:
            if cfg.normalized:
                nsq = np.dot(u, u)
                if nsq > nsq_floor:
                    w += (mu * e_u / nsq) * u
            else:
                w += (mu * e_u) * u
    return AudioBuffer(out, mixture.sample_rate)
