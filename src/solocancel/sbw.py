"""Short-time ERB-band Wiener cancellation.

Per STFT frame, one real gain per auditory band matches the reference
spectrum to the mixture; the scaled reference is then removed by magnitude
spectral subtraction (1-norm by default) and the estimate is resynthesized
by weighted overlap-add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, require_matched
from .erb import ErbPartition, make_partition
from .stft import Window, _default_window, istft, stft
from .wiener import spectral_subtract

#: Bands whose reference power falls below this fraction of the frame's mean
#: bin power get a zero gain instead of a divide-by-silence.
ZERO_REFERENCE_GUARD = 1e-12


@dataclass
class SbwConfig:
    """Settings for :func:`sbw_cancel` / the two-channel variant.

    ``wiener_exponent`` raises the per-band gain to a power (1.0 is the
    classical Wiener gain, 0.5 the square-root variant, 0.0 degenerates to
    plain spectral subtraction of the raw reference). ``cross_cov`` selects
    how the band cross-covariance is pooled: ``"magnitude"`` averages
    per-bin magnitudes |S0* X|, ``"complex"`` takes the magnitude of the
    complex band mean.
    """

    fft_size: int = 4096
    hop: int = 2048
    window: Window | None = None
    num_bands: int = 39
    cutoff: float | None = None  # None: 16 kHz, or Nyquist below 32 kHz
    p: float = 1.0
    wiener_exponent: float = 1.0
    cross_cov: str = "magnitude"

    def resolve_window(self) -> Window:
        if self.window is None:
            return _default_window(self.fft_size)
        if len(self.window) != self.fft_size:
            raise ValueError("window length must equal fft_size")
        return self.window

    def validate(self):
        if self.hop <= 0 or self.hop > self.fft_size:
            raise ValueError("hop must satisfy 0 < hop <= fft_size")
        if self.p <= 0:
            raise ValueError("p must be > 0")
        if self.wiener_exponent < 0:
            raise ValueError("wiener_exponent must be >= 0")
        if self.cross_cov not in ("magnitude", "complex"):
            raise ValueError("cross_cov must be 'magnitude' or 'complex'")

    def partition_for(self, sample_rate: int) -> ErbPartition:
        return make_partition(self.fft_size, sample_rate, self.cutoff, self.num_bands)


def subband_gains_frames(
    ref_frames: np.ndarray,
    mix_frames: np.ndarray,
    partition: ErbPartition,
    cross_cov: str = "magnitude",
) -> np.ndarray:
    """Per-frame, per-band Wiener gains for stacked half-spectra.

    Gain = band cross-covariance / band auto-covariance of the reference,
    with silent reference bands forced to zero.
    """
    auto = partition.band_mean(np.abs(ref_frames) ** 2)
    prod = np.conj(ref_frames) * mix_frames
    if cross_cov == "magnitude":
        cross = partition.band_mean(np.abs(prod))
    elif cross_cov == "complex":
        # |band sum| / size, not |band mean|: the two round differently.
        edges = partition.band_edges
        cross = np.abs(np.add.reduceat(prod, edges[:-1], axis=-1)) / partition.band_sizes()
    else:
        raise ValueError("cross_cov must be 'magnitude' or 'complex'")

    frame_power = np.mean(np.abs(ref_frames) ** 2, axis=-1, keepdims=True)
    guard = auto <= ZERO_REFERENCE_GUARD * frame_power
    gains = np.zeros_like(auto)
    np.divide(cross, auto, out=gains, where=~guard)
    return gains


def subband_wiener_gains(
    ref_frame: np.ndarray,
    mix_frame: np.ndarray,
    partition: ErbPartition,
    cross_cov: str = "magnitude",
) -> np.ndarray:
    """Band gains for a single pair of half-spectrum frames."""
    ref_frame = np.atleast_2d(np.asarray(ref_frame, dtype=np.complex128))
    mix_frame = np.atleast_2d(np.asarray(mix_frame, dtype=np.complex128))
    if ref_frame.shape != mix_frame.shape:
        raise ValueError("frames must have equal length")
    if ref_frame.shape[-1] != partition.num_bins:
        raise ValueError("frame length inconsistent with partition")
    return subband_gains_frames(ref_frame, mix_frame, partition, cross_cov)[0]


def cancel_frames(
    mix_frames: np.ndarray,
    ref_frames: np.ndarray,
    partition: ErbPartition,
    cfg: SbwConfig,
) -> np.ndarray:
    """Cancelled spectra for stacked frames; shared by the 1- and 2-mic paths."""
    gains = subband_gains_frames(ref_frames, mix_frames, partition, cfg.cross_cov)
    if cfg.wiener_exponent != 1.0:
        gains = gains**cfg.wiener_exponent
    per_bin = gains[..., partition.band_of_bin - 1]
    matched = per_bin * ref_frames
    return spectral_subtract(mix_frames, matched, cfg.p)


def sbw_cancel(
    mixture: AudioBuffer, reference: AudioBuffer, cfg: SbwConfig | None = None
) -> AudioBuffer:
    """Remove the reference accompaniment from a single-microphone recording."""
    if cfg is None:
        cfg = SbwConfig()
    require_matched(mixture, reference)
    cfg.validate()
    window = cfg.resolve_window()
    partition = cfg.partition_for(mixture.sample_rate)

    spec_x = stft(mixture, window, cfg.hop)
    spec_ref = stft(reference, window, cfg.hop)
    est = cancel_frames(spec_x.frames, spec_ref.frames, partition, cfg)
    out = istft(spec_x.copy_with(est))
    return AudioBuffer(out.samples[: len(mixture)], mixture.sample_rate)
