"""Two-microphone extension: per-bin delay estimation and maximal-ratio combining.

The two channels are cancelled independently; a causal track reads the
inter-microphone solo delay off the phase ratio of the cancelled spectra in
the solo-dominant bins, and the second channel is counter-rotated and averaged
with the first, frame by frame in the one weighted overlap-add engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, _check_counts, _check_reals, require_matched
from .errors import NoSignalError
from .sbw import SbwConfig, cancel_frames
from .stft import _wola


#: Speed of sound in air, m/s.
SPEED_OF_SOUND = 343.0


def half_wavelength_spacing(f_max: float) -> float:
    """Largest alias-free element spacing for content up to ``f_max`` Hz."""
    return SPEED_OF_SOUND / (2.0 * f_max)


@dataclass
class ArrayGeometry:
    """Two-element microphone array sampled at ``sample_rate``.

    A source at angle theta from broadside reaches the second element
    ``spacing * sin(theta) * sample_rate / SPEED_OF_SOUND`` samples after the
    first (:func:`delay_from_angle`). The spacing and ``f_max`` must be finite and
    positive, the rate an integer >= 1, and the spacing must not exceed half the
    wavelength at ``f_max`` (spatial sampling theorem); past that the per-bin delay
    of content up to ``f_max`` is ambiguous. ``f_max`` enters nothing else, so one
    above Nyquist only tightens the bound.
    """

    spacing: float
    f_max: float = 8000.0
    sample_rate: int = 44100

    def __post_init__(self):
        _check_reals(0, True, spacing=self.spacing, f_max=self.f_max)
        _check_counts(sample_rate=self.sample_rate)
        limit = half_wavelength_spacing(self.f_max)
        if not self.spacing <= limit * (1.0 + 1e-6):
            raise ValueError(
                f"spacing {self.spacing:.4f} m exceeds the half-wavelength "
                f"limit {limit:.4f} m for f_max = {self.f_max:.0f} Hz"
            )

    @property
    def max_delay_samples(self) -> float:
        """Physical bound on the inter-element delay, in samples (the delay at 90 degrees)."""
        return self.spacing * self.sample_rate / SPEED_OF_SOUND


@dataclass
class DelayEstimate:
    """Inter-channel delay in fractional samples, the delay :func:`delay_from_angle` gives a
    source at some angle."""

    kappa: float
    confidence: float  # fraction of usable bins that passed the threshold


def delay_from_angle(theta_deg: float, geometry: ArrayGeometry) -> float:
    """Delay in samples of the second element for a source at ``theta_deg``:
    spacing * sin(theta) * sample_rate / SPEED_OF_SOUND, the delay
    :func:`~solocancel.scenes.synth_sido` gives channel 2."""
    sin_theta = math.sin(math.radians(theta_deg))
    return geometry.spacing * sin_theta * geometry.sample_rate / SPEED_OF_SOUND


#: Share of its frame's peak |X1| that a bin must reach to enter the delay median.
_REL_THRESHOLD = 0.01


def estimate_delay(frame1: np.ndarray, frame2: np.ndarray, geometry: ArrayGeometry) -> DelayEstimate:
    """Median-of-bins delay estimate between two half-spectrum frames.

    Each retained bin w contributes -arg(X2/X1) * N / (2 pi w). Bins are
    retained when |X1| clears 1 % of its frame peak and the bin
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

    mags = np.abs(frame1)
    peak = mags.max()
    if peak <= 0.0:
        raise NoSignalError("reference channel frame is silent")
    bins = np.flatnonzero(mags[1 : cap + 1] >= _REL_THRESHOLD * peak) + 1
    if bins.size == 0:
        raise NoSignalError("no bins above the retention threshold")

    ratio_phase = np.angle(frame2[bins] * np.conj(frame1[bins]))
    obs = -ratio_phase * fft_size / (2.0 * np.pi * bins)
    # np.median from one partial sort: a NaN sorts last and is the median,
    # else the middle element or the mean of the middle pair
    half, odd = divmod(obs.size, 2)
    part = np.partition(obs, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        median = part[-1]
    else:
        median = part[half] if odd else (part[half - 1] + part[half]) / 2.0
    # single low bins can produce out-of-range observations; the estimate
    # itself stays within the physical bound
    kappa = float(min(max(median, -kappa_max), kappa_max))
    return DelayEstimate(kappa=kappa, confidence=bins.size / (n_bins - 1))


def mrc_combine(frame1: np.ndarray, frame2: np.ndarray, kappa: float | np.ndarray) -> np.ndarray:
    """Maximal-ratio combination of two cancelled half-spectrum frames.

    The second channel is counter-rotated by the per-bin phase of a
    ``kappa``-sample delay and averaged with the first. ``kappa`` is a scalar,
    or one delay per frame for stacked (frames x bins) spectra; any other
    shape, or a delay that is not a finite number, is a ``ValueError``. The
    rotation is built once per distinct delay.
    """
    frame1 = np.asarray(frame1, dtype=np.complex128)
    frame2 = np.asarray(frame2, dtype=np.complex128)
    if frame1.shape != frame2.shape:
        raise ValueError("frames must have equal length")
    if np.shape(kappa) not in ((), frame1.shape[:-1]):
        raise ValueError(
            f"kappa of shape {np.shape(kappa)} is neither a scalar nor one delay per "
            f"frame for frames of shape {frame1.shape}"
        )
    n_bins = frame1.shape[-1]
    fft_size = 2 * (n_bins - 1)
    values, inverse = np.unique(kappa, return_inverse=True)
    for value in values.tolist():
        _check_reals(kappa=value)
    rot = np.exp(2j * np.pi * values[:, None] * np.arange(n_bins) / fft_size)
    rot = rot[inverse.ravel()].reshape(np.shape(kappa) + (n_bins,))
    return 0.5 * (frame1 + rot * frame2)


#: Delay estimates the track takes the median of.
_TRACK_LENGTH = 5

#: Share of its mixture magnitude that a bin of cancelled channel 1 must keep to
#: count as solo-dominant and enter the delay track.
_SOLO_SHARE = 0.9


def _delay_track(geometry: ArrayGeometry):
    """A causal delay track: ``extend(mix1, est1, est2)`` maps one block of channel 1's
    mixture frames and both channels' cancelled frames to each frame's delay, the
    median of the last ``_TRACK_LENGTH`` estimates up to and including it that did
    not fail or read NaN, or 0 before the first. An estimate reads only channel 1's
    solo-dominant bins. The state carries across blocks."""
    recent = deque(maxlen=_TRACK_LENGTH)

    def extend(mix1: np.ndarray, est1: np.ndarray, est2: np.ndarray) -> np.ndarray:
        solo1 = np.where(np.abs(est1) < _SOLO_SHARE * np.abs(mix1), 0.0, est1)
        delays = np.zeros(est1.shape[0])
        for t in range(est1.shape[0]):
            try:
                kappa = estimate_delay(solo1[t], est2[t], geometry).kappa
            except NoSignalError:
                kappa = math.nan
            if not math.isnan(kappa):
                recent.append(kappa)
            if recent:  # np.median's value; for five numbers sorted() is far cheaper
                ordered = sorted(recent)
                mid = len(ordered) // 2
                delays[t] = (ordered[mid] + ordered[~mid]) / 2.0
        return delays

    return extend


def sbw_simo_cancel(
    mixture1: AudioBuffer,
    mixture2: AudioBuffer,
    reference: AudioBuffer,
    cfg: SbwConfig | None = None,
    geometry: ArrayGeometry | None = None,
    kappa: float | None = None,
) -> AudioBuffer:
    """Cancel both channels independently, then combine them with MRC.

    When ``kappa`` is given (finite and within the ``max_delay_samples + 0.5`` that
    :func:`estimate_delay` searches, else ``ValueError`` before any work) it is used for
    every frame; otherwise each frame takes the causal delay track's value
    (:func:`_delay_track`). Like ``sbw_cancel``, it holds one block of frames beyond its
    inputs and output. The output is aligned with channel 1. ``geometry`` None is the
    half-wavelength array for 8 kHz at the mixture's sample rate; a given geometry must
    share that rate.
    """
    if kappa is not None:
        _check_reals(kappa=kappa)
    if cfg is None:
        cfg = SbwConfig()
    require_matched(mixture1, mixture2, "channels")
    require_matched(mixture1, reference)
    if geometry is None:
        geometry = ArrayGeometry(half_wavelength_spacing(8000.0), sample_rate=mixture1.sample_rate)
    elif geometry.sample_rate != mixture1.sample_rate:
        raise ValueError(
            f"geometry sample rate {geometry.sample_rate} differs from the mixture's "
            f"{mixture1.sample_rate}"
        )
    kappa_max = geometry.max_delay_samples + 0.5
    if kappa is not None and abs(kappa) > kappa_max:
        raise ValueError(f"kappa {kappa} is beyond the array's delay bound {kappa_max:.6g}")
    partition = cfg.partition_for(mixture1.sample_rate)
    track = _delay_track(geometry)

    def cancel_both(mix1, mix2, ref):
        est1 = cancel_frames(mix1, ref, partition, cfg)
        est2 = cancel_frames(mix2, ref, partition, cfg)
        return mrc_combine(est1, est2, track(mix1, est1, est2) if kappa is None else float(kappa))

    return _wola(cancel_both, (mixture1, mixture2, reference),
                 cfg.fft_size, cfg.hop, cfg.window_shape)
