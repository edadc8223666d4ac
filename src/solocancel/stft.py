"""Windowing, short-time Fourier analysis, and weighted overlap-add synthesis.

Half-spectra only (real signals); the same window is applied at analysis and
synthesis and the overlap-added result is divided by the accumulated squared
window, which gives perfect reconstruction wherever that envelope is nonzero
and well-behaved resynthesis of modified spectra.

The spectral cancellers and the SNRF share one frame-block engine
(weighted overlap-add, Crochiere 1980, IEEE TASSP 28(1)). It runs the frames
in blocks of ``_BLOCK_FRAMES``: each block is analysed by ``stft`` of the
zero-padded segment it covers and mapped on the calling thread, then overlap-added
into the output on one worker thread while the next block is mapped; the output's
samples are divided by the envelope as soon as no later frame reaches them. Every
stage is frame-local, and output and envelope sum each sample in frame order: the
bytes do not depend on the block size or on the threads, and every hop that all
``ceil(fft_size / hop)`` frames reach shares one envelope row, computed once;
only the edge hops have rows of their own. Beyond its output and inputs, a run
holds two blocks of frames (the one mapped, the one added), whatever the input
length. ``istft`` is the one-block case of the same overlap-add. The cancellers
frame a take as if ``ceil(fft_size / hop) - 1`` hops of zeros came before and after
it, so that no sample of it is divided by one window's edge alone (about 1e-7 at
the default KBD(4)/4096).
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer, _check_counts, _check_reals

#: Overlap-add envelope below this is treated as silence, not divided by.
_ENVELOPE_FLOOR = 1e-12

#: Frames per block of the weighted overlap-add engine.
_BLOCK_FRAMES = 32


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
    x = signal.samples  # an engine segment fills its frames already: framed without a copy
    if n != (num_frames - 1) * hop + n_fft:
        x = np.concatenate((x, np.zeros((num_frames - 1) * hop + n_fft - n)))

    segments = sliding_window_view(x, n_fft)[::hop]
    frames = np.fft.rfft(segments * window[None, :], axis=1)
    return SpectralFrameSeq(frames, hop, signal.sample_rate, window)


def _overlap_add(blocks, window: np.ndarray, hop: int, length: int) -> np.ndarray:
    """The first ``length`` samples of the weighted overlap-add of the consecutive frame
    stacks in ``blocks``, whose frames start less than a hop past ``length``.

    The output is a stack of hop-long chunks. Chunk k sums chunk r of frame k - r's
    windowed irfft over r = chunks-1 .. 0, frame order, whatever the blocking, and is
    divided by its envelope, summed in the same order, once no later frame reaches it.
    One worker thread adds each block while this thread draws the next from ``blocks``,
    in a copy of this thread's context (so under its ``np.errstate``); each block is added
    before the next is handed over, and an exception on either thread is raised here.
    """
    n_fft = len(window)
    chunks = -(-n_fft // hop)
    wsq = np.pad(window * window, (0, chunks * hop - n_fft)).reshape(chunks, hop)
    out = np.zeros((-(-length // hop) + chunks, hop))
    seen = 0  # frames added; only the worker advances it

    def settle(first: int, stop: int) -> None:
        """Divide chunks ``first`` .. ``stop - 1`` by their envelope when frames 0 ..
        ``seen - 1`` exist (silence where it is not above the floor). Chunks that all
        ``chunks`` frames reach share one row; only edge chunks are summed one by one."""
        shared = chunks - 1 <= first and stop <= seen
        envelope = np.zeros((1 if shared else stop - first, hop))
        for r in range(chunks - 1, -1, -1):
            envelope[max(first, r) - first : min(stop, r + seen) - first] += wsq[r]
        live = envelope > _ENVELOPE_FLOOR
        np.divide(out[first:stop], envelope, out=out[first:stop], where=live)
        np.copyto(out[first:stop], 0.0, where=~live)

    def add(frames: np.ndarray) -> None:
        nonlocal seen
        count = frames.shape[0]
        pieces = np.fft.irfft(frames, n=n_fft, axis=1)
        pieces *= window
        for r in range(chunks - 1, -1, -1):
            part = pieces[:, r * hop : (r + 1) * hop]  # the last may be narrower than a hop
            out[seen + r : seen + r + count, : part.shape[1]] += part
        seen += count
        settle(seen - count, seen)

    context = contextvars.copy_context()
    with ThreadPoolExecutor(1) as worker:
        added = None
        for frames in blocks:
            if added is not None:
                added.result()
            added = worker.submit(context.run, add, frames)
            del frames  # freed once added, not after the next block is mapped
        added.result()
    settle(seen, seen + chunks - 1)
    return out.ravel()[:length]


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
    hops of zeros came before and after them, one block of frames at a time on the calling
    thread, and return the weighted overlap-add resynthesis of its result without those
    zeros, each block added on a worker thread while the next is mapped (``_overlap_add``).
    A signal shorter than one window is a ValueError."""
    window = make_window(fft_size, shape)
    n = len(signals[0])
    _num_frames(n, fft_size, hop)
    lead = (-(-fft_size // hop) - 1) * hop
    out = _overlap_add(_map_blocks(process, signals, window, hop, lead), window, hop, n + lead)
    return AudioBuffer(out[lead:], signals[0].sample_rate)
