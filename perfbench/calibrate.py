"""Calibration kernels: the machine's speed, sampled between timed calls.

On a shared host the same call can take twice as long from one second to the
next, because other tenants compete for the core's vector units, caches and
memory bandwidth. Wall time of a call therefore measures the machine as much
as the program. Each workload runs a fixed kernel of the same kind of work as
its hot path before and after every timed call; the kernel's time against its
nominal time is the machine's speed factor at that moment, and a call's
calibrated time is its wall time divided by the mean factor of the two
kernels around it.

The kernels use numpy only, never ``solocancel``, and their inputs come from
a fixed seed, so a change to the program cannot change them. Calibrated
figures read as the wall time the call would take when the machine runs the
kernel in its nominal time; they move with the program's own cost and much
less with the machine's load.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

SEED = 20161128


def _nlms_inputs(rng):
    return rng.standard_normal(4096), rng.standard_normal(15) / 15


def _nlms(vec, pred):
    """Per-sample loop of dot products and weight updates on 1023 taps, with
    a 15-tap prediction on the side, as in the adaptive filters."""
    w = np.zeros(1023)
    hist = np.zeros(15)
    for k in range(1500):
        u = vec[k : k + 1023]
        e = vec[k + 1023] - np.dot(w, u)
        e_w = e - np.dot(pred, hist)
        nsq = np.dot(u, u)
        if nsq > 0.0:
            w += (0.01 * e_w / nsq) * u
        hist[1:] = hist[:-1]
        hist[0] = e
    return float(w[0])


def _gemm_inputs(rng):
    return (rng.standard_normal((512, 4096)),)


def _gemm(mat):
    """Dense covariance product, as in the block Wiener solves."""
    return float((mat @ mat.T)[0, 0])


def _fft_inputs(rng):
    return rng.standard_normal(2**19), np.hanning(2048)


def _fft(signal, window):
    """Windowed framing, forward and inverse real FFT of a long signal, as in
    the STFT path."""
    frames = np.lib.stride_tricks.sliding_window_view(signal, 2048)[::512] * window
    return float(np.fft.irfft(np.abs(np.fft.rfft(frames, axis=1)), axis=1).sum())


#: name -> (input maker, kernel, nominal seconds). The nominal times are the
#: kernels' medians on the baseline machine (Intel Xeon KVM guest, 2 vCPUs,
#: one BLAS thread); they fix the unit of the calibrated figures, nothing else.
KERNELS = {
    "nlms": (_nlms_inputs, _nlms, 0.0125),
    "gemm": (_gemm_inputs, _gemm, 0.0300),
    "fft": (_fft_inputs, _fft, 0.0550),
}


class Speedometer:
    """Samples the machine's speed factor with a workload's kernels.

    A factor of 1 means the kernels ran in their nominal time; 1.5 means the
    machine ran them half again as slowly. Every factor sampled is kept in
    ``factors``.
    """

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = kernels
        self._runs = []
        for name in kernels:
            make_inputs, kernel, nominal = KERNELS[name]
            self._runs.append((kernel, make_inputs(np.random.default_rng(SEED)), nominal))
        self.factors: list[float] = []

    def sample(self) -> float:
        ratios = []
        for kernel, inputs, nominal in self._runs:
            start = perf_counter()
            kernel(*inputs)
            ratios.append((perf_counter() - start) / nominal)
        factor = sum(ratios) / len(ratios)
        self.factors.append(factor)
        return factor
