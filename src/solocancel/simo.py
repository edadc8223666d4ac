"""Two-microphone extension: per-bin delay estimation and maximal-ratio combining.

The two channels are cancelled independently; the inter-microphone solo delay
is then read off the phase ratio of the cancelled spectra and the second
channel is counter-rotated and averaged with the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer, require_matched
from .erb import ErbPartition
from .errors import NoSignalError
from .sbw import SbwConfig, cancel_frames
from .stft import istft, stft


def half_wavelength_spacing(f_max: float, speed_of_sound: float = 343.0) -> float:
    """Largest alias-free element spacing for content up to ``f_max`` Hz."""
    return speed_of_sound / (2.0 * f_max)


@dataclass
class ArrayGeometry:
    """Two-element microphone array geometry.

    Spacing must not exceed half the wavelength at ``f_max`` (spatial
    sampling theorem); violating it makes the per-bin delay ambiguous.
    """

    spacing: float
    f_max: float = 8000.0
    speed_of_sound: float = 343.0
    sample_rate: int = 44100

    def __post_init__(self):
        if self.spacing <= 0 or self.f_max <= 0:
            raise ValueError("spacing and f_max must be positive")
        if self.f_max > self.sample_rate / 2:
            raise ValueError("f_max must not exceed Nyquist")
        limit = half_wavelength_spacing(self.f_max, self.speed_of_sound)
        if self.spacing > limit * (1.0 + 1e-6):
            raise ValueError(
                f"spacing {self.spacing:.4f} m exceeds the half-wavelength "
                f"limit {limit:.4f} m for f_max = {self.f_max:.0f} Hz"
            )

    @property
    def max_delay_samples(self) -> float:
        """Physical bound on the inter-element delay, in samples."""
        return self.spacing * self.sample_rate / self.speed_of_sound


@dataclass
class DelayEstimate:
    """Inter-channel delay in fractional samples with its angle of arrival."""

    kappa: float
    theta_deg: float
    confidence: float  # fraction of usable bins that passed the threshold


def angle_from_delay(kappa: float, geometry: ArrayGeometry) -> float:
    """Angle of arrival (degrees) for an inter-element delay in samples."""
    s = np.clip(kappa * geometry.f_max / (geometry.sample_rate / 2.0), -1.0, 1.0)
    return float(np.degrees(np.arcsin(s)))


def delay_from_angle(theta_deg: float, geometry: ArrayGeometry) -> float:
    """Inverse of :func:`angle_from_delay`."""
    return float(
        np.sin(np.radians(theta_deg)) * (geometry.sample_rate / 2.0) / geometry.f_max
    )


def estimate_delay(
    frame1: np.ndarray,
    frame2: np.ndarray,
    geometry: ArrayGeometry,
    rel_threshold: float = 0.01,
) -> DelayEstimate:
    """Median-of-bins delay estimate between two half-spectrum frames.

    Each retained bin w contributes -arg(X2/X1) * N / (2 pi w). Bins are
    retained when |X1| clears ``rel_threshold`` of its frame peak and the bin
    is low enough that the physically possible delay cannot wrap the
    principal phase (w <= N / (2 kappa_max)); above that the observations
    alias and would bias the median.
    """
    frame1 = np.asarray(frame1, dtype=np.complex128)
    frame2 = np.asarray(frame2, dtype=np.complex128)
    if frame1.shape != frame2.shape or frame1.ndim != 1:
        raise ValueError("frames must be equal-length 1-D half-spectra")
    n_bins = frame1.shape[0]
    fft_size = 2 * (n_bins - 1)

    kappa_max = geometry.max_delay_samples + 0.5
    cap = max(1, min(n_bins - 1, int(fft_size / (2.0 * kappa_max))))

    mags = np.abs(frame1[1 : cap + 1])
    peak = np.max(np.abs(frame1))
    if peak <= 0.0:
        raise NoSignalError("reference channel frame is silent")
    keep = mags >= rel_threshold * peak
    if not np.any(keep):
        raise NoSignalError("no bins above the retention threshold")

    bins = np.arange(1, cap + 1)[keep]
    ratio_phase = np.angle(frame2[bins] * np.conj(frame1[bins]))
    obs = -ratio_phase * fft_size / (2.0 * np.pi * bins)
    # single low bins can produce out-of-range observations; the estimate
    # itself stays within the physical bound
    kappa = float(np.clip(np.median(obs), -kappa_max, kappa_max))
    return DelayEstimate(
        kappa=kappa,
        theta_deg=angle_from_delay(kappa, geometry),
        confidence=float(np.count_nonzero(keep)) / (n_bins - 1),
    )


def mrc_combine(frame1: np.ndarray, frame2: np.ndarray, kappa: float | np.ndarray) -> np.ndarray:
    """Maximal-ratio combination of two cancelled half-spectrum frames.

    The second channel is counter-rotated by the per-bin phase of a
    ``kappa``-sample delay and averaged with the first. ``kappa`` is a scalar,
    or one delay per frame for stacked (frames x bins) spectra.
    """
    frame1 = np.asarray(frame1, dtype=np.complex128)
    frame2 = np.asarray(frame2, dtype=np.complex128)
    if frame1.shape != frame2.shape:
        raise ValueError("frames must have equal length")
    n_bins = frame1.shape[-1]
    fft_size = 2 * (n_bins - 1)
    if np.ndim(kappa) == 1:
        kappa = np.asarray(kappa)[:, None]
    rot = np.exp(2j * np.pi * kappa * np.arange(n_bins) / fft_size)
    return 0.5 * (frame1 + rot * frame2)


def _frame_delays(
    est1: np.ndarray,
    est2: np.ndarray,
    geometry: ArrayGeometry,
    median_window: int = 5,
) -> np.ndarray:
    """Per-frame delay track, estimated on solo-dominant frames and smoothed."""
    num_frames = est1.shape[0]
    energy = np.sum(np.abs(est1) ** 2, axis=1)
    floor = 1e-6 * np.max(energy) if np.max(energy) > 0 else 0.0
    raw = np.full(num_frames, np.nan)
    for t in range(num_frames):
        if energy[t] <= floor:
            continue
        try:
            raw[t] = estimate_delay(est1[t], est2[t], geometry).kappa
        except NoSignalError:
            continue
    valid = np.flatnonzero(~np.isnan(raw))
    if valid.size == 0:
        return np.zeros(num_frames)
    # Frames without an estimate inherit the nearest valid one.
    nearest = valid[np.searchsorted(valid, np.arange(num_frames)).clip(max=valid.size - 1)]
    prev = valid[(np.searchsorted(valid, np.arange(num_frames), side="right") - 1).clip(min=0)]
    pick = np.where(
        np.abs(nearest - np.arange(num_frames)) < np.abs(np.arange(num_frames) - prev),
        nearest,
        prev,
    )
    # Median over a window truncated at both ends of the track: the NaN
    # padding drops out of nanmedian.
    edge = np.full(median_window // 2, np.nan)
    padded = np.concatenate((edge, raw[pick], edge))
    return np.nanmedian(sliding_window_view(padded, 2 * edge.size + 1), axis=1)


def sbw_simo_cancel(
    mixture1: AudioBuffer,
    mixture2: AudioBuffer,
    reference: AudioBuffer,
    cfg: SbwConfig | None = None,
    geometry: ArrayGeometry | None = None,
    kappa: float | None = None,
) -> AudioBuffer:
    """Cancel both channels independently, then combine them with MRC.

    When ``kappa`` is given it is used for every frame; otherwise the delay
    is estimated per frame from the cancelled spectra. The output is aligned
    with channel 1.
    """
    if cfg is None:
        cfg = SbwConfig()
    require_matched(mixture1, mixture2, "channels")
    require_matched(mixture1, reference)
    cfg.validate()
    if geometry is None:
        geometry = ArrayGeometry(
            spacing=half_wavelength_spacing(8000.0),
            sample_rate=mixture1.sample_rate,
        )
    window = cfg.resolve_window()
    partition: ErbPartition = cfg.partition_for(mixture1.sample_rate)

    spec1 = stft(mixture1, window, cfg.hop)
    spec2 = stft(mixture2, window, cfg.hop)
    spec_ref = stft(reference, window, cfg.hop)
    est1 = cancel_frames(spec1.frames, spec_ref.frames, partition, cfg)
    est2 = cancel_frames(spec2.frames, spec_ref.frames, partition, cfg)

    if kappa is not None:
        delays = np.full(est1.shape[0], float(kappa))
    else:
        delays = _frame_delays(est1, est2, geometry)
    out = istft(spec1.copy_with(mrc_combine(est1, est2, delays)))
    return AudioBuffer(out.samples[: len(mixture1)], mixture1.sample_rate)
