"""Mono audio buffers and FIR filters, the currency of every module here."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

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

    taps: np.ndarray = field(default_factory=lambda: np.ones(1))

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")

    def __len__(self) -> int:
        return self.taps.shape[0]

    @property
    def order(self) -> int:
        return len(self) - 1

    def apply(self, buf: AudioBuffer) -> AudioBuffer:
        """Causal convolution, output truncated to the input length."""
        out = np.convolve(buf.samples, self.taps)[: len(buf)]
        return AudioBuffer(out, buf.sample_rate)


def require_matched(a: AudioBuffer, b: AudioBuffer, what: str = "buffers"):
    """Equal length and equal sample rate, or ValueError; finite samples, or
    FloatingPointError. Every canceller and metric calls this first."""
    if len(a) != len(b):
        raise ValueError(f"{what} must have equal length ({len(a)} != {len(b)})")
    if a.sample_rate != b.sample_rate:
        raise ValueError(
            f"{what} must share a sample rate ({a.sample_rate} != {b.sample_rate})"
        )
    for buf in (a, b):
        if not np.isfinite(buf.samples).all():
            raise FloatingPointError(f"{what} hold non-finite samples (NaN or inf)")
