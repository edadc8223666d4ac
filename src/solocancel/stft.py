"""Windowing, short-time Fourier analysis, and weighted overlap-add synthesis.

Half-spectra only (real signals); the same window is applied at analysis and
synthesis and the overlap-added result is divided by the accumulated squared
window, which gives perfect reconstruction wherever that envelope is nonzero
and well-behaved resynthesis of modified spectra.

The spectral cancellers and the SNRF share one frame-block engine
(weighted overlap-add, Crochiere 1980, IEEE TASSP 28(1)). It runs the frames
in blocks of ``_BLOCK_FRAMES``: each block is analysed by ``stft`` of the
zero-padded segment it covers, mapped, and overlap-added into the output,
whose samples are divided by the envelope as soon as no later frame reaches
them; ``fft_size - hop`` samples of output and envelope (rounded up to whole
hops) carry over to the next block. Every stage is frame-local and the
overlap-add sums each sample in frame order, so the bytes do not depend on
the block size. Beyond its output and inputs, a run holds one block of
frames, whatever the input length. ``istft`` is the one-block case of the
same overlap-add. The cancellers frame a take as if ``ceil(fft_size / hop) - 1``
hops of zeros came before and after it, so that no sample of it is divided by
one window's edge alone (about 1e-7 at the default KBD(4)/4096).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer, _check_counts, _check_reals

#: Overlap-add envelope below this is treated as silence, not divided by.
_ENVELOPE_FLOOR = 1e-12

#: Frames per block of the weighted overlap-add engine.
_BLOCK_FRAMES = 64


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


def make_window(length: int, shape: float = 4.0) -> np.ndarray:
    """The Kaiser-Bessel-derived (KBD) window of even ``length`` >= 2, a float64 array. It
    is power-complementary (Princen-Bradley), so 50 %-overlap WOLA has a flat envelope.
    ``shape`` must be finite and >= 0 (4.0 is customary), and one whose window overflows
    to non-finite values (about 226 and up) is rejected; the checks are :func:`_framing`'s."""
    _check_counts(length=length)
    _framing(length, None, shape)
    return _kbd(length, shape)


def _hop(fft_size: int, hop: int | None) -> int:
    """The hop rule: ``hop``, checked to be an integer with 0 < hop <= fft_size, or half the
    frame when None, the 50 % overlap at which the KBD window's WOLA envelope is flat."""
    if hop is None:
        return fft_size // 2
    _check_counts(hop=hop)
    if hop > fft_size:
        raise ValueError("hop must satisfy 0 < hop <= fft_size")
    return hop


def _framing(fft_size: int, hop: int | None, shape: float = 4.0) -> int:
    """The package's one framing rule, checked without building the window: an even
    ``fft_size`` >= 2, a KBD ``shape`` whose window is finite (exactly when I0(pi * shape),
    which ``np.kaiser`` divides by, does not overflow), and the hop by :func:`_hop`, returned."""
    _check_counts(fft_size=fft_size)
    if fft_size < 2 or fft_size % 2 != 0:
        raise ValueError(f"window length must be even and >= 2, got {fft_size}")
    _check_reals(0, shape=shape)
    with np.errstate(over="ignore", invalid="ignore"):  # np.i0 overflows in exp(x) / sqrt(x)
        if not np.isfinite(np.i0(np.pi * shape)):
            raise ValueError(f"KBD shape {shape} gives a non-finite window")
    return _hop(fft_size, hop)


@dataclass
class SpectralFrameSeq:
    """A sequence of complex half-spectra plus the framing that produced it.

    ``frames`` has shape (num_frames, fft_size // 2 + 1), where ``fft_size`` is the
    window's length; bin b of frame t is the rfft of
    ``window * signal[t*hop : t*hop + fft_size]``.
    """

    frames: np.ndarray
    hop: int
    sample_rate: int
    window: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.complex128)
        self.window = np.asarray(self.window, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError("frames must be a 2-D (num_frames, bins) array")
        if self.frames.shape[1] != self.fft_size // 2 + 1:
            raise ValueError("frame length inconsistent with the window length")
        self.hop = _hop(self.fft_size, self.hop)
        _check_counts(sample_rate=self.sample_rate)

    @property
    def fft_size(self) -> int:
        return self.window.shape[0]

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_bins(self) -> int:
        return self.frames.shape[1]


def _num_frames(n: int, n_fft: int, hop: int) -> int:
    """Frames covering ``n`` samples, the last one completed with zeros; ValueError
    when the signal is shorter than one window."""
    if n < n_fft:
        raise ValueError(f"signal length {n} shorter than window length {n_fft}")
    return 1 + -(-(n - n_fft) // hop)


def stft(signal: AudioBuffer, window: np.ndarray, hop: int) -> SpectralFrameSeq:
    """Short-time Fourier transform with tail zero-padding.

    ``window`` is any 1-D array of coefficients, applied at analysis and synthesis; the
    hop must satisfy 0 < hop <= len(window). The signal must be at least one window long;
    the final frame is completed with zeros so no input sample is dropped.
    """
    window = np.asarray(window, dtype=np.float64)
    n_fft = len(window)
    hop = _hop(n_fft, hop)
    n = len(signal)
    num_frames = _num_frames(n, n_fft, hop)
    padded_len = (num_frames - 1) * hop + n_fft
    x = np.zeros(padded_len)
    x[:n] = signal.samples

    segments = sliding_window_view(x, n_fft)[::hop]
    frames = np.fft.rfft(segments * window[None, :], axis=1)
    return SpectralFrameSeq(frames, hop, signal.sample_rate, window)


def _overlap_add(blocks, window: np.ndarray, hop: int, length: int) -> np.ndarray:
    """The first ``length`` samples of the weighted overlap-add of the consecutive frame
    stacks in ``blocks``, each divided by its envelope as soon as no later frame can
    reach it.

    Each frame's windowed irfft is zero-padded to ``chunks`` whole hops, so sample
    chunk k sums frame k - r's chunk r over r = chunks-1 .. 0. That is frame order,
    the order of a frame-by-frame loop, so the bytes do not depend on how the frames
    are blocked; the padding adds +0.0, which changes no sum. The last
    ``chunks - 1`` chunks of output and envelope carry over to the next block.
    """
    n_fft = len(window)
    chunks = -(-n_fft // hop)
    wsq = np.zeros(chunks * hop)
    wsq[:n_fft] = window * window
    wsq = wsq.reshape(chunks, hop)
    out = np.empty(length)
    done = 0
    carry = np.zeros((2, chunks - 1, hop))  # output and envelope
    for frames in blocks:
        count = frames.shape[0]
        pieces = np.zeros((count, chunks * hop))
        np.multiply(np.fft.irfft(frames, n=n_fft, axis=1), window, out=pieces[:, :n_fft])
        pieces = pieces.reshape(count, chunks, hop)
        acc = np.zeros((2, count + chunks - 1, hop))
        acc[:, : chunks - 1] = carry
        for r in range(chunks - 1, -1, -1):
            acc[0, r : r + count] += pieces[:, r]
            acc[1, r : r + count] += wsq[r]
        done = _emit(out, done, acc[:, :count])
        carry = acc[:, count:].copy()
        del frames, pieces, acc  # none is needed while the next block is computed
    _emit(out, done, carry)
    return out


def _emit(out: np.ndarray, done: int, acc: np.ndarray) -> int:
    """Divide the final samples ``acc[0]`` by their envelope ``acc[1]`` (silence where
    it is not above the floor), copy them into ``out`` from ``done`` on as far as it
    reaches, and return the new count of samples done."""
    samples, envelope = acc[0].ravel(), acc[1].ravel()
    live = envelope > _ENVELOPE_FLOOR
    np.divide(samples, envelope, out=samples, where=live)
    samples[~live] = 0.0
    take = min(samples.size, out.size - done)
    out[done : done + take] = samples[:take]
    return done + take


def istft(seq: SpectralFrameSeq) -> AudioBuffer:
    """Weighted overlap-add resynthesis.

    Applies the analysis window again at synthesis and divides by the summed
    squared-window envelope. Output length is
    ``(num_frames - 1) * hop + fft_size``.
    """
    out_len = (seq.num_frames - 1) * seq.hop + seq.fft_size
    return AudioBuffer(_overlap_add([seq.frames], seq.window, seq.hop, out_len), seq.sample_rate)


def _blocks(num_frames: int):
    """Frame slices of at most ``_BLOCK_FRAMES`` frames, in order."""
    for first in range(0, num_frames, _BLOCK_FRAMES):
        yield slice(first, min(first + _BLOCK_FRAMES, num_frames))


def _segment(signal: AudioBuffer, start: int, length: int) -> AudioBuffer:
    """``length`` samples of ``signal`` from ``start``, zero-padded outside it."""
    lead = max(-start, 0)
    part = signal.samples[start + lead : start + length]
    if part.size < length:
        part = np.concatenate((np.zeros(lead), part, np.zeros(length - lead - part.size)))
    return AudioBuffer(part, signal.sample_rate)


def _map_blocks(process, signals, window: np.ndarray, hop: int, lead: int = 0):
    """Yield ``process`` of the frame stacks of the equal-length ``signals``, framed as
    if ``lead`` zeros came before and after them, one block of frames at a time.

    A block's stacks are the ``stft`` of the segment its frames cover, so they equal
    those rows of the whole-signal ``stft``; no reference to them outlives ``process``.
    """
    n_fft = len(window)
    for frames in _blocks(_num_frames(len(signals[0]) + 2 * lead, n_fft, hop)):
        start = frames.start * hop - lead
        length = (frames.stop - frames.start - 1) * hop + n_fft
        yield process(*(stft(_segment(s, start, length), window, hop).frames for s in signals))


def _wola(process, signals, fft_size: int, hop: int, shape: float) -> AudioBuffer:
    """Run ``process`` over the frame stacks of the equal-length ``signals``, ``fft_size``
    long, KBD(``shape``)-windowed and ``hop`` apart, framed as if ``ceil(fft_size / hop) - 1``
    hops of zeros came before and after them, one block of frames at a time, and return the
    weighted overlap-add resynthesis of its result without those zeros. A signal shorter
    than one window is a ValueError."""
    window = make_window(fft_size, shape)
    n = len(signals[0])
    _num_frames(n, fft_size, hop)
    lead = (-(-fft_size // hop) - 1) * hop
    out = _overlap_add(_map_blocks(process, signals, window, hop, lead), window, hop, n + lead)
    return AudioBuffer(out[lead:], signals[0].sample_rate)
