"""Synthetic recording scenes: channel model, microphone IRs, latency calibration.

A scene is built from a dry solo d and a clean accompaniment reference s0:
the accompaniment reaches the microphone attenuated and delayed, both parts
pass through the microphone impulse response, and the recorded mixture is
x = h * (d + A s0(k - kappa)). The metric ground truth is h * d — the
microphone's signature stays part of the estimate.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .audio import (
    AudioBuffer, FirFilter, _check_counts, _check_reals, _require_finite, require_matched,
)
from .errors import NoSignalError
from .simo import ArrayGeometry, delay_from_angle


def make_mic_ir(
    rt_ms: float = 13.7, length: int = 606, seed: int = 0, sample_rate: int = 44100
) -> FirFilter:
    """Synthetic microphone impulse response.

    Seeded Gaussian noise under an exponential envelope whose energy falls
    60 dB over ``rt_ms`` (finite, > 0), a unit first tap (direct path), normalized to unit
    energy. Only the decay rate and length matter to the cancellers; the
    response of any particular capsule is not modeled.
    """
    _check_reals(0, True, rt_ms=rt_ms)
    _check_counts(length=length, sample_rate=sample_rate)
    rt_samples = rt_ms / 1000.0 * sample_rate
    k = np.arange(length)
    envelope = 10.0 ** (-3.0 * k / rt_samples)
    h = envelope * np.random.default_rng(seed).standard_normal(length)
    h[0] = 1.0
    return FirFilter(h / np.linalg.norm(h))


#: Length of the windowed-sinc interpolator of :func:`fractional_delay` (odd).
_SINC_TAPS = 31


def fractional_delay(x: np.ndarray, delay: float) -> np.ndarray:
    """Delay a sequence by a possibly fractional number of samples.

    Integer delays shift exactly; fractional parts use a 31-tap
    Blackman-windowed sinc interpolator. Output has the input's length
    (zeros shifted in) and lies in the one take-length array made. ValueError
    naming ``delay`` unless it is finite.
    """
    _check_reals(delay=delay)
    n = len(x)
    int_part = math.floor(delay)
    frac = delay - int_part

    if frac == 0.0:
        src, offset, out = x, 0, np.empty(n)
    else:
        center = _SINC_TAPS // 2
        t = np.arange(_SINC_TAPS)
        taps = np.sinc(t - center - frac) * np.blackman(_SINC_TAPS)
        taps /= np.sum(taps)
        # interpolated sample k is src[center + k]; shifted within src, not copied out
        src = np.convolve(x, taps)
        offset, out = center, src[:n]

    lo = min(max(int_part, 0), n)  # out[lo:hi] are the samples the input reaches
    hi = max(min(n + int_part, n), 0)
    out[lo:hi] = src[offset + lo - int_part : offset + hi - int_part]
    out[:lo] = 0.0
    out[hi:] = 0.0
    return out


@dataclass
class SidoLayout:
    """Two-microphone scene geometry: the array's spacing and the source angles, each
    finite, the spacing and ``f_max`` positive. The accompaniment's angle is stored but not
    yet modelled: ``synth_sido`` gives both microphones the same accompaniment."""

    spacing: float
    solo_angle_deg: float
    accomp_angle_deg: float = 90.0
    f_max: float = 8000.0

    def __post_init__(self):
        _check_reals(0, True, spacing=self.spacing, f_max=self.f_max)
        _check_reals(solo_angle_deg=self.solo_angle_deg, accomp_angle_deg=self.accomp_angle_deg)

    def geometry(self, sample_rate: int) -> ArrayGeometry:
        """The array at ``sample_rate``; ValueError past the half-wavelength limit."""
        return ArrayGeometry(self.spacing, self.f_max, sample_rate)

    def solo_delay_samples(self, sample_rate: int) -> float:
        return delay_from_angle(self.solo_angle_deg, self.geometry(sample_rate))


@dataclass
class SceneConfig:
    """Everything needed to synthesize a scene.

    The accompaniment gain is either derived from ``level_diff_db`` (recorded
    accompaniment RMS minus recorded solo RMS, in dB) or taken verbatim from
    ``accompaniment_gain`` when ``level_diff_db`` is None (0 mutes it). Either,
    when given, must be finite, and the gain finite and >= 0 (``ValueError``).
    """

    solo: AudioBuffer
    accompaniment_reference: AudioBuffer
    mic_ir: FirFilter
    channel_delay: int = 32
    level_diff_db: float | None = 6.02
    accompaniment_gain: float | None = None
    sido: SidoLayout | None = None

    def __post_init__(self):
        _check_reals(0, channel_delay=self.channel_delay)
        if self.level_diff_db is None and self.accompaniment_gain is None:
            raise ValueError("need level_diff_db or accompaniment_gain")
        if self.level_diff_db is not None:
            _check_reals(level_diff_db=self.level_diff_db)
            try:
                math.pow(10.0, self.level_diff_db / 20.0)
            except OverflowError:
                raise ValueError(
                    f"level_diff_db {self.level_diff_db} dB overflows the linear gain") from None
        if self.accompaniment_gain is not None:
            _check_reals(0, accompaniment_gain=self.accompaniment_gain)
        require_matched(self.solo, self.accompaniment_reference, "solo/accompaniment")
        if self.channel_delay >= len(self.solo):
            raise ValueError("buffers too short to absorb the channel delay")


@dataclass
class Scene:
    """A synthesized recording with its clean reference and ground truth.

    ``reference`` is the config's ``accompaniment_reference`` buffer, not a copy.
    The scene keeps nothing else of its config, so the dry solo is freed with it.
    """

    mixture: AudioBuffer
    reference: AudioBuffer
    reference_solo: AudioBuffer  # mic IR applied to the solo
    mixture2: AudioBuffer | None = None
    accompaniment_gain: float = 1.0

    @property
    def is_sido(self) -> bool:
        return self.mixture2 is not None


def _recorded_parts(cfg: SceneConfig):
    """The recorded solo h * d, the recorded accompaniment A h * s0(k - kappa), and A."""
    s0 = cfg.accompaniment_reference
    accomp = AudioBuffer(fractional_delay(s0.samples, cfg.channel_delay), s0.sample_rate)
    cfg.mic_ir.apply_in_place(accomp.samples)
    recorded_solo = cfg.mic_ir.apply(cfg.solo)
    if cfg.level_diff_db is not None:
        rms_solo = recorded_solo.rms()
        if rms_solo == 0.0:
            raise ValueError("level_diff_db is undefined for a silent solo")
        rms_unit = accomp.rms()
        if rms_unit == 0.0:
            raise ValueError("accompaniment reference is silent")
        gain = 10.0 ** (cfg.level_diff_db / 20.0) * rms_solo / rms_unit
    else:
        gain = float(cfg.accompaniment_gain)
    accomp.samples *= gain
    return recorded_solo, accomp, gain


def synth_siso(cfg: SceneConfig) -> Scene:
    """Single-microphone scene: x = h * d + A h * s0(k - kappa)."""
    recorded_solo, accomp, gain = _recorded_parts(cfg)
    accomp.samples += recorded_solo.samples  # now the mixture
    return Scene(
        mixture=accomp, reference=cfg.accompaniment_reference, reference_solo=recorded_solo,
        accompaniment_gain=gain,
    )


def synth_sido(cfg: SceneConfig) -> Scene:
    """Two-microphone scene.

    Channel 2 sees the solo delayed by the layout's
    :meth:`~SidoLayout.solo_delay_samples` (fractional, windowed-sinc); the
    recorded accompaniment is identical on both channels.
    """
    if cfg.sido is None:
        raise ValueError("SceneConfig.sido geometry is required")
    sr = cfg.solo.sample_rate
    kappa_d = cfg.sido.solo_delay_samples(sr)
    recorded_solo, accomp, gain = _recorded_parts(cfg)
    mixture2 = AudioBuffer(fractional_delay(cfg.solo.samples, kappa_d), sr)
    cfg.mic_ir.apply_in_place(mixture2.samples)
    mixture2.samples += accomp.samples
    accomp.samples += recorded_solo.samples  # now channel 1's mixture
    return Scene(
        mixture=accomp, mixture2=mixture2, reference=cfg.accompaniment_reference,
        reference_solo=recorded_solo, accompaniment_gain=gain,
    )


def calibrate_latency(recorded: AudioBuffer, reference: AudioBuffer, max_lag: int) -> int:
    """Lag (in samples) at which the cross-correlation with the reference peaks.

    Searches non-negative lags up to ``max_lag``; intended for measuring the
    playback-to-capture offset from an accompaniment-only calibration take. A NaN or
    inf sample raises FloatingPointError.
    """
    last = min(len(recorded), len(reference)) - 1
    integral = isinstance(max_lag, numbers.Integral) and not isinstance(max_lag, bool)
    if not (integral and 0 <= max_lag <= last):
        raise ValueError(f"max_lag must be an integer from 0 to {last}, got {max_lag!r}")
    _require_finite("recorded/reference", recorded, reference)
    if not np.any(recorded.samples) or not np.any(reference.samples):
        raise NoSignalError("cannot calibrate on silent audio")
    import scipy.signal  # here, not at the top: importing it dominates package start-up

    corr = scipy.signal.correlate(recorded.samples, reference.samples, mode="full")
    zero = len(reference) - 1
    window = corr[zero : zero + max_lag + 1]
    return int(np.argmax(window))


# ---------------------------------------------------------------------------
# Test-signal generators. Music-like rather than musical: the solo is a line
# of plucked notes that follows the accompaniment's chord progression (the
# two generators share it through the seed), the accompaniment is comping
# chords, a bass line, light percussion, and a low noise bed under a slow
# tremolo. Shared tonality and note rests are what make the scene behave
# like real material rather than like independent noise.
# ---------------------------------------------------------------------------

CHORD_ROOTS = (110.0, 130.81, 146.83, 164.81, 196.0)
CHORD_SPAN = 0.5  # seconds per chord
NOTE_SPAN = 0.25  # seconds per solo note slot


def _sample_count(duration: float, sample_rate: int) -> int:
    """``round(duration * sample_rate)``; ValueError naming ``duration`` unless it is
    finite and gives at least one sample."""
    _check_reals(duration=duration)
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ValueError(f"duration {duration} s gives no sample at {sample_rate} Hz")
    return n


def _progression(duration: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    count = int(np.ceil(duration / CHORD_SPAN)) + 1
    return rng.integers(0, len(CHORD_ROOTS), count)


def noise_plus_tones(duration: float, sample_rate: int = 44100, seed: int = 0) -> AudioBuffer:
    """A solo-like test signal: decaying harmonic notes with pick transients
    and gated noise, resting between notes, on the shared chord progression.

    One note starts every ``NOTE_SPAN`` seconds and sounds for 60 % of its
    slot; the signal is scaled to RMS 0.05. Only ``seed`` varies the material.
    ValueError unless ``duration`` is finite and gives at least one sample.
    """
    n = _sample_count(duration, sample_rate)
    rng = np.random.default_rng(seed + 1)
    prog = _progression(duration, seed)
    out = np.zeros(n)
    slot = int(NOTE_SPAN * sample_rate)
    note_len = int(0.6 * slot)
    for start in range(0, n, slot):
        stop = min(n, start + note_len)
        span = stop - start
        if span <= 0:
            break
        root = CHORD_ROOTS[prog[int(start / sample_rate / CHORD_SPAN)]]
        f0 = root * rng.choice((2.0, 3.0, 4.0))
        phase = 2 * np.pi * f0 * (np.arange(start, stop) / sample_rate)
        tone = (
            np.sin(phase)
            + 0.5 * np.sin(2 * phase + rng.uniform(0, 2 * np.pi))
            + 0.25 * np.sin(3 * phase + rng.uniform(0, 2 * np.pi))
        )
        env = np.exp(-6.0 * np.arange(span) / sample_rate / NOTE_SPAN)
        attack = min(int(0.005 * sample_rate), span)
        env[:attack] *= np.linspace(0.0, 1.0, attack)
        out[start:stop] += env * (tone + 0.08 * rng.standard_normal(span))
        pick = min(int(0.008 * sample_rate), span)
        out[start : start + pick] += (
            4.0 * np.exp(-np.arange(pick) / (0.002 * sample_rate)) * rng.standard_normal(pick)
        )
    out *= 0.05 / np.sqrt(np.mean(out**2))
    return AudioBuffer(out, sample_rate)


def _phasor_polynomial(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z**k by Horner's rule, in place on one span-length array;
    zero coefficients cost one product each."""
    top = max(np.flatnonzero(coeffs), default=0)
    out = np.full(len(z), coeffs[top])
    for c in coeffs[:top][::-1]:
        out *= z
        if c:
            out += c
    return out


def broadband_accompaniment(
    duration: float, sample_rate: int = 44100, seed: int = 0
) -> AudioBuffer:
    """An accompaniment-like test signal: comping chords and bass over the
    shared progression, hat/kick percussion, a noise bed, and tremolo.

    A hat every 0.25 s, high-passed at 6 kHz or, below 16 kHz, at 0.75 x
    Nyquist, and a kick every 0.5 s; a 5-Hz tremolo of depth 0.6 over the mix,
    then an AR(1) noise bed; scaled to RMS 0.05. Only ``seed`` varies the
    material. ValueError unless ``duration`` is finite and gives a sample.

    Every chord and bass partial sits at a multiple k of root / 2, so each
    0.5-s chord evaluates one phasor z = exp(2 pi i (root / 2) t) over its span
    and sums its partials as Im(sum_k c_k z**k) by Horner's rule; c_k adds
    exp(i phi) / harmonic for each partial at k, with its random phase phi.
    The bass is Im(exp(i phi) z + 0.3 z**2).
    """
    import scipy.signal  # here, not at the top: importing it dominates package start-up

    n = _sample_count(duration, sample_rate)
    rng = np.random.default_rng(seed + 2)
    prog = _progression(duration, seed)
    out = np.zeros(n)
    chord_len = int(CHORD_SPAN * sample_rate)
    for j, start in enumerate(range(0, n, chord_len)):
        stop = min(n, start + chord_len)
        span = stop - start
        root = CHORD_ROOTS[prog[j]]
        env = np.exp(-2.0 * np.arange(span) / sample_rate / CHORD_SPAN)
        attack = min(int(0.005 * sample_rate), span)
        env[:attack] *= np.linspace(0.0, 1.0, attack)
        # harmonic `harm` of `mult` x root is power 2 * mult * harm of z, at most 64
        coeffs = np.zeros(65, complex)
        for mult in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            f0 = root * mult
            for harm in range(1, 9):
                if f0 * harm > sample_rate / 2 * 0.9:
                    break
                coeffs[int(2 * mult) * harm] += cmath.exp(1j * rng.uniform(0, 2 * np.pi)) / harm
        z = np.exp(1j * (2 * np.pi * (root / 2)) * (np.arange(start, stop) / sample_rate))
        out[start:stop] += 0.5 * env * _phasor_polynomial(coeffs, z).imag
        bass = z * (cmath.exp(1j * rng.uniform(0, 2 * np.pi)) + 0.3 * z)
        out[start:stop] += 0.8 * bass.imag * np.exp(
            -1.0 * np.arange(span) / sample_rate / CHORD_SPAN
        )
    del env, z, bass  # the last chord's span arrays, freed before the take-length steps
    hat_len = int(0.02 * sample_rate)
    hat_env = np.exp(-np.arange(hat_len) / (0.003 * sample_rate))
    b, a = scipy.signal.butter(2, min(6000 / (sample_rate / 2), 0.75), "high")
    for start in range(0, n - hat_len, int(0.25 * sample_rate)):
        out[start : start + hat_len] += hat_env * scipy.signal.lfilter(
            b, a, rng.standard_normal(hat_len)
        )
    kick_len = int(0.06 * sample_rate)
    for start in range(0, n - kick_len, int(0.5 * sample_rate)):
        sweep = 2 * np.pi * np.cumsum(np.linspace(120.0, 50.0, kick_len)) / sample_rate
        out[start : start + kick_len] += 1.5 * np.exp(
            -np.arange(kick_len) / (0.01 * sample_rate)
        ) * np.sin(sweep)
    out *= 1.0 + 0.6 * np.sin(2 * np.pi * 5.0 * (np.arange(n) / sample_rate))
    out += 0.015 * scipy.signal.lfilter([1.0], [1.0, -0.7], rng.standard_normal(n))
    out *= 0.05 / np.sqrt(np.mean(out**2))
    return AudioBuffer(out, sample_rate)


# ---------------------------------------------------------------------------
# Plain-text key=value files (scene parameters and manifests).
# ---------------------------------------------------------------------------


def read_kv(path) -> dict[str, str]:
    """Parse a key=value file; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def write_kv(path, entries: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")
