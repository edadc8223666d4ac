"""Mono audio buffers and FIR filters, the currency of every module here."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Smallest FFT of :meth:`FirFilter.apply`'s blocks; longer filters take the power of
#: two at or above four filter lengths.
_FIR_MIN_FFT = 4096


@dataclass
class AudioBuffer:
    """A mono sample sequence with its sample rate.

    Samples are stored as float64; integer and float32 input is converted
    on construction.
    """

    samples: np.ndarray
    sample_rate: int = 44100

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioBuffer holds mono audio (1-D sample array)")
        _check_counts(sample_rate=self.sample_rate)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self) / self.sample_rate

    def rms(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.samples**2)))

    def copy(self) -> "AudioBuffer":
        return AudioBuffer(self.samples.copy(), self.sample_rate)


@dataclass
class FirFilter:
    """A real FIR filter; ``taps[0]`` multiplies the newest sample."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")

    def __len__(self) -> int:
        return self.taps.shape[0]

    def apply(self, buf: AudioBuffer) -> AudioBuffer:
        """Causal convolution, output truncated to the input length: a copy of the
        samples filtered by :meth:`apply_in_place`. An empty buffer raises ValueError."""
        out = buf.samples.copy()
        self.apply_in_place(out)
        return AudioBuffer(out, buf.sample_rate)

    def apply_in_place(self, x: np.ndarray) -> None:
        """Replace the 1-D float64 array ``x`` by its causal convolution with the taps.

        Overlap-add FFT convolution (Stockham 1966) in blocks of one fixed FFT
        size, the power of two at or above four filter lengths and at least
        ``_FIR_MIN_FFT`` (one block when the whole convolution is shorter), so
        the temporaries are one block whatever the input length. Two buffers of
        ``len(taps) - 1`` samples carry the block boundary: the outputs a block
        spills into the next one, and the inputs before the next block, which
        the silence rule reads after ``x`` holds outputs there. Wherever the
        filter's last ``len(taps)`` input samples are all zero the output is
        exactly 0.0, as in direct convolution, so digital silence stays silent
        (:func:`~solocancel.metrics.snrf` skips cells with zero signal power).
        Elsewhere it differs from direct convolution by about 1e-15 of
        sum|taps| * max|x|. The input is taken as finite: a NaN or inf spreads over its
        whole block. An empty or non-float64 ``x`` raises ValueError.
        """
        import scipy.fft  # here, not at the top: importing it dominates package start-up

        if x.dtype != np.float64 or x.ndim != 1:
            raise ValueError(f"cannot filter a {x.ndim}-D {x.dtype} array in place")
        n = len(x)
        if n == 0:
            raise ValueError("cannot filter an empty buffer")
        h = self.taps[:n]  # later taps never reach the kept outputs
        m = len(h)
        size = max(_FIR_MIN_FFT, 1 << (4 * m - 1).bit_length())
        size = min(size, scipy.fft.next_fast_len(n + m - 1, real=True))
        step = size - m + 1
        spectrum_h = scipy.fft.rfft(h, size)
        spill = np.zeros(m - 1)  # the previous block's outputs past its end
        before = np.zeros(m - 1)  # the inputs before the block, zeros before x[0]
        for start in range(0, n, step):
            seg = x[start : start + step]
            spectrum = scipy.fft.rfft(seg, size)
            spectrum *= spectrum_h
            block = scipy.fft.irfft(spectrum, size)
            window = np.concatenate((before, seg))  # the inputs the block's outputs read
            before[:] = window[len(seg) :]
            # each output is 0.0 + its blocks' sums, as if added into zeros: no -0.0
            k = min(m - 1, len(seg))
            np.add(spill[:k], block[:k], out=seg[:k])
            np.add(block[k : len(seg)], 0.0, out=seg[k:])
            np.add(block[len(seg) : len(seg) + m - 1], 0.0, out=spill)
            _silence(seg, window, m)


def _silence(out: np.ndarray, window: np.ndarray, m: int) -> None:
    """Zero ``out`` wherever the ``m`` input samples ending at its sample are all zero;
    ``window`` holds those inputs, the ``m - 1`` before ``out``'s first sample included."""
    if window.all():
        return
    nonzero = np.zeros(len(window) + 1, dtype=np.intp)
    np.cumsum(window != 0, out=nonzero[1:])
    out[nonzero[m:] == nonzero[: len(out)]] = 0.0


def _check_counts(**values) -> None:
    """ValueError naming the first of ``values`` that is not an integer >= 1: a numpy
    integer is one, a bool, a float or None is not."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_reals(low=None, strict=False, /, **values) -> None:
    """ValueError naming the first of ``values`` that is not a finite real number or, with
    ``low`` given, not above it (``strict``) or at or above it: a numpy float is one, a bool,
    None, a string or an integer beyond the float range is not."""
    bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
    for name, value in values.items():
        try:
            ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
        except OverflowError:  # an integer beyond the float range
            ok = False
        if not ok or low is not None and not (value > low if strict else value >= low):
            raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def require_matched(a: AudioBuffer, b: AudioBuffer, what: str = "buffers"):
    """Equal length and equal sample rate, or ValueError; finite samples, or
    FloatingPointError. Every canceller and metric calls this first."""
    if len(a) != len(b):
        raise ValueError(f"{what} must have equal length ({len(a)} != {len(b)})")
    if a.sample_rate != b.sample_rate:
        raise ValueError(
            f"{what} must share a sample rate ({a.sample_rate} != {b.sample_rate})"
        )
    _require_finite(what, a, b)


def _require_finite(what: str, *buffers: AudioBuffer) -> None:
    """FloatingPointError naming ``what`` unless every sample of ``buffers`` is finite."""
    for buf in buffers:
        if not np.isfinite(buf.samples).all():
            raise FloatingPointError(f"non-finite samples (NaN or inf) in {what}")
