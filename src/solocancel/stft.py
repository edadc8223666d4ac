"""Windowing, short-time Fourier analysis, and weighted overlap-add synthesis.

Half-spectra only (real signals); the same window is applied at analysis and
synthesis and the overlap-added result is divided by the accumulated squared
window, which gives perfect reconstruction wherever that envelope is nonzero
and well-behaved resynthesis of modified spectra.

The spectral cancellers share one weighted overlap-add pipeline, ``_wola``
(Crochiere 1980, IEEE TASSP 28(1)): analysis of each input, one frame map,
resynthesis, and a cut back to the input length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer

#: Overlap-add envelope below this is treated as silence, not divided by.
_ENVELOPE_FLOOR = 1e-12


@dataclass
class Window:
    """Analysis/synthesis window coefficients, of even length; :func:`make_window`
    builds them."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)

    def __len__(self) -> int:
        return self.coefficients.shape[0]


def _kbd(length: int, shape: float) -> np.ndarray:
    # Cumulative-Kaiser construction: kernel of length N/2+1 with parameter
    # pi*shape, normalized running sum, square root, mirrored second half.
    half = length // 2
    kernel = np.kaiser(half + 1, np.pi * shape)
    csum = np.cumsum(kernel)
    w = np.empty(length)
    w[:half] = np.sqrt(csum[:half] / csum[half])
    w[half:] = w[:half][::-1]
    return w


def make_window(kind: str, length: int, shape: float = 4.0) -> Window:
    """Build a window of the given kind.

    Parameters
    ----------
    kind : {"kbd", "hann", "rect"}
        KBD satisfies the Princen-Bradley power-complementarity condition,
        so 50 %-overlap WOLA has a flat envelope.
    length : int
        Even, >= 2.
    shape : float
        KBD shape parameter (>= 0); 4.0 is the customary value.
    """
    if length < 2 or length % 2 != 0:
        raise ValueError(f"window length must be even and >= 2, got {length}")
    kind = kind.lower()
    if kind == "rect":
        coeffs = np.ones(length)
    elif kind == "hann":
        coeffs = np.hanning(length)
    elif kind == "kbd":
        if not shape >= 0:
            raise ValueError(f"KBD shape must be >= 0, got {shape}")
        coeffs = _kbd(length, shape)
    else:
        raise ValueError(f"unknown window kind {kind!r}")
    return Window(coeffs)


def _framing(fft_size: int, hop: int | None, window: Window | None) -> tuple[Window, int]:
    """The package's one framing rule: ``window``, checked to be ``fft_size`` long, or
    KBD(4); ``hop``, checked to satisfy 0 < hop <= fft_size, or half the frame, the
    50 % overlap at which the KBD window's WOLA envelope is flat."""
    if window is None:
        window = make_window("kbd", fft_size)
    elif len(window) != fft_size:
        raise ValueError("window length must equal fft_size")
    if hop is None:
        hop = fft_size // 2
    elif not 0 < hop <= fft_size:
        raise ValueError("hop must satisfy 0 < hop <= fft_size")
    return window, hop


@dataclass
class SpectralFrameSeq:
    """A sequence of complex half-spectra plus the framing that produced it.

    ``frames`` has shape (num_frames, fft_size // 2 + 1); bin b of frame t is
    the rfft of ``window * signal[t*hop : t*hop + fft_size]``.
    """

    frames: np.ndarray
    fft_size: int
    hop: int
    sample_rate: int
    window: Window = field(repr=False)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.complex128)
        if self.frames.ndim != 2:
            raise ValueError("frames must be a 2-D (num_frames, bins) array")
        if self.frames.shape[1] != self.fft_size // 2 + 1:
            raise ValueError("frame length inconsistent with fft_size")
        self.window, self.hop = _framing(self.fft_size, self.hop, self.window)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_bins(self) -> int:
        return self.frames.shape[1]


def stft(signal: AudioBuffer, window: Window, hop: int) -> SpectralFrameSeq:
    """Short-time Fourier transform with tail zero-padding.

    The hop must satisfy 0 < hop <= len(window). The signal must be at least one
    window long; the final frame is completed with zeros so no input sample is
    dropped.
    """
    n_fft = len(window)
    window, hop = _framing(n_fft, hop, window)
    n = len(signal)
    if n < n_fft:
        raise ValueError(f"signal length {n} shorter than window length {n_fft}")

    num_frames = 1 + int(np.ceil((n - n_fft) / hop)) if n > n_fft else 1
    padded_len = (num_frames - 1) * hop + n_fft
    x = np.zeros(padded_len)
    x[:n] = signal.samples

    segments = sliding_window_view(x, n_fft)[::hop]
    frames = np.fft.rfft(segments * window.coefficients[None, :], axis=1)
    return SpectralFrameSeq(frames, n_fft, hop, signal.sample_rate, window)


def istft(seq: SpectralFrameSeq) -> AudioBuffer:
    """Weighted overlap-add resynthesis.

    Applies the analysis window again at synthesis and divides by the summed
    squared-window envelope. Output length is
    ``(num_frames - 1) * hop + fft_size``.
    """
    n_fft = seq.fft_size
    hop = seq.hop
    w = seq.window.coefficients
    out_len = (seq.num_frames - 1) * hop + n_fft

    pieces = np.fft.irfft(seq.frames, n=n_fft, axis=1) * w[None, :]
    out = np.zeros(out_len)
    envelope = np.zeros(out_len)
    wsq = w * w
    for t in range(seq.num_frames):
        start = t * hop
        out[start : start + n_fft] += pieces[t]
        envelope[start : start + n_fft] += wsq

    live = envelope > _ENVELOPE_FLOOR
    out[live] /= envelope[live]
    out[~live] = 0.0
    return AudioBuffer(out, seq.sample_rate)


def _wola(process, signals, window: Window, hop: int) -> AudioBuffer:
    """Run ``process`` over the frame stacks of the equal-length ``signals`` and return
    the weighted overlap-add resynthesis of its result, cut to the input length."""
    n, fs = len(signals[0]), signals[0].sample_rate
    # Only ``process`` holds the input stacks, so they are freed before resynthesis.
    frames = process(*(stft(s, window, hop).frames for s in signals))
    out = istft(SpectralFrameSeq(frames, len(window), hop, fs, window))
    return AudioBuffer(out.samples[:n], fs)
