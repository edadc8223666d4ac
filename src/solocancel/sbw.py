"""Short-time ERB-band Wiener cancellation.

Per STFT frame, one real gain per auditory band matches the reference
spectrum to the mixture; the scaled reference is then removed by magnitude
spectral subtraction (1-norm by default). Both cancellers run that frame map,
``cancel_frames``, in the one weighted overlap-add pipeline, ``stft._wola``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .audio import AudioBuffer, _check_counts, _check_reals, require_matched
from .erb import ErbPartition, make_partition
from .stft import _framing, _wola
from .wiener import spectral_subtract

#: Bands whose reference power falls below this fraction of the frame's mean
#: bin power get a zero gain instead of a divide-by-silence.
ZERO_REFERENCE_GUARD = 1e-12


@dataclass
class SbwConfig:
    """Settings for :func:`sbw_cancel` / the two-channel variant.

    ``wiener_exponent`` raises the per-band gain to a power (1.0 is the
    classical Wiener gain, 0.5 the square-root variant, 0.0 degenerates to
    plain spectral subtraction of the raw reference). The bands are
    :func:`~solocancel.erb.make_partition`'s, up to 16 kHz (Nyquist below
    32 kHz).

    Frames are ``fft_size`` long, KBD(``window_shape``)-windowed, ``hop`` apart (None: half
    the frame). Checked at construction (``ValueError``).
    """

    fft_size: int = 4096
    hop: int | None = None
    window_shape: float = 4.0
    num_bands: int = 39
    p: float = 1.0
    wiener_exponent: float = 1.0

    def __post_init__(self):
        _check_counts(num_bands=self.num_bands)
        try:
            self.hop = _framing(self.fft_size, self.hop, self.window_shape)
        except ValueError as exc:
            raise ValueError(f"fft_size/hop/window_shape: {exc}") from exc
        _check_reals(0, True, p=self.p)
        _check_reals(0, wiener_exponent=self.wiener_exponent)

    def partition_for(self, sample_rate: int) -> ErbPartition:
        return make_partition(self.fft_size, sample_rate, self.num_bands)


def subband_gains_frames(
    ref_frames: np.ndarray, mix_frames: np.ndarray, partition: ErbPartition
) -> np.ndarray:
    """Per-frame, per-band Wiener gains for stacked half-spectra.

    Gain = band mean of the cross-covariance magnitudes |S0* X| over band mean
    of the reference power |S0|^2, with silent reference bands forced to zero.
    """
    power = np.abs(ref_frames) ** 2
    auto = partition.band_mean(power)
    cross = partition.band_mean(np.abs(np.conj(ref_frames) * mix_frames))

    frame_power = np.mean(power, axis=-1, keepdims=True)
    guard = auto <= ZERO_REFERENCE_GUARD * frame_power
    gains = np.zeros_like(auto)
    np.divide(cross, auto, out=gains, where=~guard)
    return gains


def cancel_frames(
    mix_frames: np.ndarray,
    ref_frames: np.ndarray,
    partition: ErbPartition,
    cfg: SbwConfig,
) -> np.ndarray:
    """Cancelled spectra for stacked frames; shared by the 1- and 2-mic paths."""
    gains = subband_gains_frames(ref_frames, mix_frames, partition)
    per_bin = np.repeat(gains**cfg.wiener_exponent, partition.band_sizes(), axis=-1)
    matched = per_bin * ref_frames
    return spectral_subtract(mix_frames, matched, cfg.p)


def sbw_cancel(
    mixture: AudioBuffer, reference: AudioBuffer, cfg: SbwConfig | None = None
) -> AudioBuffer:
    """Remove the reference accompaniment from a single-microphone recording."""
    if cfg is None:
        cfg = SbwConfig()
    require_matched(mixture, reference)
    cancel = partial(cancel_frames, partition=cfg.partition_for(mixture.sample_rate), cfg=cfg)
    return _wola(cancel, (mixture, reference), cfg.fft_size, cfg.hop, cfg.window_shape)
