import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solocancel import (
    AudioBuffer,
    NoSignalError,
    Scene,
    SceneConfig,
    SidoLayout,
    broadband_accompaniment,
    calibrate_latency,
    fractional_delay,
    make_mic_ir,
    noise_plus_tones,
    synth_sido,
    synth_siso,
)
from solocancel.scenes import read_kv, write_kv
from test_audio import parent_fir_apply


def loop_broadband_accompaniment(duration, sample_rate=44100, seed=0):
    """``broadband_accompaniment`` with one ``np.sin`` per chord and bass partial, as it
    was before the phasor polynomial; kept as its oracle."""
    import scipy.signal

    from solocancel.scenes import CHORD_ROOTS, CHORD_SPAN, _progression

    rng = np.random.default_rng(seed + 2)
    prog = _progression(duration, seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    out = np.zeros(n)
    chord_len = int(CHORD_SPAN * sample_rate)
    for j, start in enumerate(range(0, n, chord_len)):
        stop = min(n, start + chord_len)
        span = stop - start
        root = CHORD_ROOTS[prog[j]]
        _t = t[start:stop]
        env = np.exp(-2.0 * np.arange(span) / sample_rate / CHORD_SPAN)
        attack = min(int(0.005 * sample_rate), span)
        env[:attack] *= np.linspace(0.0, 1.0, attack)
        chord = np.zeros(span)
        for mult in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            f0 = root * mult
            for harm in range(1, 9):
                if f0 * harm > sample_rate / 2 * 0.9:
                    break
                chord += (1.0 / harm) * np.sin(
                    2 * np.pi * f0 * harm * _t + rng.uniform(0, 2 * np.pi)
                )
        out[start:stop] += 0.5 * env * chord
        bass = np.sin(2 * np.pi * (root / 2) * _t + rng.uniform(0, 2 * np.pi))
        bass += 0.3 * np.sin(2 * np.pi * root * _t)
        out[start:stop] += 0.8 * bass * np.exp(
            -1.0 * np.arange(span) / sample_rate / CHORD_SPAN
        )
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
    out *= 1.0 + 0.6 * np.sin(2 * np.pi * 5.0 * t)
    out += 0.015 * scipy.signal.lfilter([1.0], [1.0, -0.7], rng.standard_normal(n))
    out *= 0.05 / np.sqrt(np.mean(out**2))
    return AudioBuffer(out, sample_rate)


def parent_noise_plus_tones(duration, sample_rate=44100, seed=0):
    """``noise_plus_tones`` as it was with a whole-take time axis; kept as its byte oracle."""
    from solocancel.scenes import CHORD_ROOTS, CHORD_SPAN, NOTE_SPAN, _progression, _sample_count

    n = _sample_count(duration, sample_rate)
    rng = np.random.default_rng(seed + 1)
    prog = _progression(duration, seed)
    t = np.arange(n) / sample_rate
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
        phase = 2 * np.pi * f0 * t[start:stop]
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


def parent_fractional_delay(x, delay):
    """``fractional_delay`` as it was, interpolating into one array and shifting into
    another; part of the synthesis byte oracles."""
    n = len(x)
    int_part = math.floor(delay)
    frac = delay - int_part

    if frac == 0.0:
        y = x
    else:
        center = 31 // 2
        t = np.arange(31)
        taps = np.sinc(t - center - frac) * np.blackman(31)
        taps /= np.sum(taps)
        y = np.convolve(x, taps)[center : center + n]

    out = np.zeros(n)
    if int_part >= 0:
        if int_part < n:
            out[int_part:] = y[: n - int_part]
    else:
        if -int_part < n:
            out[: n + int_part] = y[-int_part:]
    return out


def parent_recorded_parts(cfg):
    """``scenes._recorded_parts`` as it was, out of place, holding the shifted reference to
    the end and returning the unit-gain accompaniment; part of the synthesis byte oracles."""
    s0 = cfg.accompaniment_reference
    shifted = parent_fractional_delay(s0.samples, cfg.channel_delay)
    recorded_solo = parent_fir_apply(cfg.mic_ir, cfg.solo)
    recorded_accomp_unit = parent_fir_apply(cfg.mic_ir, AudioBuffer(shifted, s0.sample_rate))
    if cfg.level_diff_db is not None:
        rms_solo = recorded_solo.rms()
        if rms_solo == 0.0:
            raise ValueError("level_diff_db is undefined for a silent solo")
        rms_unit = recorded_accomp_unit.rms()
        if rms_unit == 0.0:
            raise ValueError("accompaniment reference is silent")
        gain = 10.0 ** (cfg.level_diff_db / 20.0) * rms_solo / rms_unit
    else:
        gain = float(cfg.accompaniment_gain)
    return recorded_solo, recorded_accomp_unit, gain


def parent_synth_siso(cfg):
    """``synth_siso`` as it was, out of place; kept as its byte oracle."""
    recorded_solo, accomp_unit, gain = parent_recorded_parts(cfg)
    mixture = AudioBuffer(
        recorded_solo.samples + gain * accomp_unit.samples, cfg.solo.sample_rate
    )
    return Scene(
        mixture=mixture,
        reference=cfg.accompaniment_reference,
        reference_solo=recorded_solo,
        accompaniment_gain=gain,
    )


def parent_synth_sido(cfg):
    """``synth_sido`` as it was, out of place; kept as its byte oracle."""
    if cfg.sido is None:
        raise ValueError("SceneConfig.sido geometry is required")
    kappa_d = cfg.sido.solo_delay_samples(cfg.solo.sample_rate)
    recorded_solo, accomp_unit, gain = parent_recorded_parts(cfg)
    accomp = gain * accomp_unit.samples
    sr = cfg.solo.sample_rate
    d2 = parent_fractional_delay(cfg.solo.samples, kappa_d)
    solo2 = parent_fir_apply(cfg.mic_ir, AudioBuffer(d2, sr)).samples
    return Scene(
        mixture=AudioBuffer(recorded_solo.samples + accomp, sr),
        mixture2=AudioBuffer(solo2 + accomp, sr),
        reference=cfg.accompaniment_reference,
        reference_solo=recorded_solo,
        accompaniment_gain=gain,
    )


def traced_peak(build):
    """The peak of the memory that ``build()`` allocates, in bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def generator_states(monkeypatch, generate, *args):
    """The final states of the generators that ``generate(*args)`` draws from."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        generate(*args)
    return [rng.bit_generator.state for rng in made]


def basic_config(n=44100, seed=0, **kwargs):
    fs = 44100
    rng = np.random.default_rng(seed)
    solo = AudioBuffer(0.05 * rng.standard_normal(n), fs)
    acc = AudioBuffer(0.05 * rng.standard_normal(n), fs)
    defaults = dict(
        solo=solo,
        accompaniment_reference=acc,
        mic_ir=make_mic_ir(13.7, 606, seed=seed),
        channel_delay=32,
        level_diff_db=6.02,
    )
    defaults.update(kwargs)
    return SceneConfig(**defaults)


class TestMakeMicIr:
    def test_identity_for_unit_length(self):
        assert np.array_equal(make_mic_ir(13.7, 1).taps, [1.0])

    def test_unit_energy_and_default_length(self):
        ir = make_mic_ir()
        assert len(ir) == 606
        assert np.linalg.norm(ir.taps) == pytest.approx(1.0, abs=1e-12)

    def test_decay_rate(self):
        # last 10 % of taps vs first 10 %: about -54 dB when length == rt
        rt_ms = 13.7
        length = int(round(rt_ms / 1000 * 44100))
        levels = []
        for seed in range(10):
            ir = make_mic_ir(rt_ms, length, seed=seed)
            tenth = length // 10
            head = np.mean(ir.taps[:tenth] ** 2)
            tail = np.mean(ir.taps[-tenth:] ** 2)
            levels.append(10 * np.log10(tail / head))
        assert np.mean(levels) == pytest.approx(-54.0, abs=3.0)

    def test_determinism(self):
        assert np.array_equal(make_mic_ir(seed=7).taps, make_mic_ir(seed=7).taps)

    def test_invalid_rt_rejected(self):
        for rt_ms in (0.0, -1.0, np.inf, np.nan):  # inf would never decay
            with pytest.raises(ValueError, match="rt_ms"):
                make_mic_ir(rt_ms, 100)


class TestSynthSiso:
    def test_level_difference_realized(self):
        scene = synth_siso(basic_config())
        accomp_part = scene.mixture.samples - scene.reference_solo.samples
        diff = 20 * np.log10(
            np.sqrt(np.mean(accomp_part**2)) / scene.reference_solo.rms()
        )
        assert diff == pytest.approx(6.02, abs=0.01)

    def test_muted_accompaniment(self):
        cfg = basic_config(level_diff_db=None, accompaniment_gain=0.0)
        scene = synth_siso(cfg)
        assert np.array_equal(scene.mixture.samples, scene.reference_solo.samples)

    @pytest.mark.parametrize("gain", [np.nan, np.inf, -1.0, None])
    def test_bad_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="accompaniment_gain"):
            basic_config(level_diff_db=None, accompaniment_gain=gain)

    @pytest.mark.parametrize("level_diff", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_diff_rejected(self, level_diff):
        with pytest.raises(ValueError, match="level_diff_db"):
            basic_config(level_diff_db=level_diff)

    @pytest.mark.parametrize("level_diff", [1e5, 6200.0])
    def test_overflowing_level_diff_rejected(self, level_diff):
        with pytest.raises(ValueError, match="level_diff_db"):
            basic_config(level_diff_db=level_diff)

    @pytest.mark.parametrize("delay", [np.nan, np.inf, -1])
    def test_bad_channel_delay_rejected(self, delay):
        with pytest.raises(ValueError, match=f"channel_delay must be finite and >= 0, got {delay}"):
            basic_config(channel_delay=delay)

    @pytest.mark.parametrize("synth", [synth_siso, synth_sido])
    def test_scene_does_not_keep_the_dry_solo(self, synth):
        cfg = basic_config(sido=SidoLayout(0.0214, 21.3))
        solo = weakref.ref(cfg.solo.samples)
        scene = synth(cfg)
        del cfg
        assert solo() is None
        assert len(scene.reference_solo) == 44100

    def test_silent_solo_with_level_diff_rejected(self):
        cfg = basic_config()
        cfg.solo = AudioBuffer(np.zeros(len(cfg.solo)), cfg.solo.sample_rate)
        with pytest.raises(ValueError):
            synth_siso(cfg)

    def test_reference_is_clean_input(self):
        cfg = basic_config()
        scene = synth_siso(cfg)
        assert np.array_equal(scene.reference.samples, cfg.accompaniment_reference.samples)

    def test_determinism(self):
        a = synth_siso(basic_config(seed=3))
        b = synth_siso(basic_config(seed=3))
        assert np.array_equal(a.mixture.samples, b.mixture.samples)

    def test_mixture_linearity(self):
        cfg = basic_config()
        scene = synth_siso(cfg)
        mute = basic_config(
            level_diff_db=None, accompaniment_gain=scene.accompaniment_gain
        )
        accomp_only = synth_siso(mute)
        solo_part = scene.mixture.samples - (
            accomp_only.mixture.samples - accomp_only.reference_solo.samples
        )
        assert np.allclose(solo_part, scene.reference_solo.samples, atol=1e-15)


class TestSynthSido:
    def sido_config(self, solo_angle=21.3, spacing=0.0214):
        return basic_config(
            sido=SidoLayout(spacing=spacing, solo_angle_deg=solo_angle, accomp_angle_deg=90.0)
        )

    def test_zero_angle_gives_identical_channels(self):
        scene = synth_sido(self.sido_config(solo_angle=0.0))
        assert np.array_equal(scene.mixture.samples, scene.mixture2.samples)

    def test_reference_geometry_delay_near_one_sample(self):
        layout = SidoLayout(spacing=0.0214, solo_angle_deg=21.3)
        assert layout.solo_delay_samples(44100) == pytest.approx(1.0, abs=0.01)

    def test_accompaniment_identical_across_channels(self):
        scene = synth_sido(self.sido_config())
        a1 = scene.mixture.samples - scene.reference_solo.samples
        solo2 = scene.mixture2.samples - a1
        # removing the (shared) accompaniment from channel 2 must leave a
        # pure delayed solo: check cross-correlation peak lag is ~1 sample
        assert scene.is_sido
        assert np.all(np.isfinite(solo2))

    def test_half_wavelength_violation_rejected(self):
        with pytest.raises(ValueError):
            synth_sido(self.sido_config(spacing=0.05))

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_solo_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="solo_angle_deg"):
            SidoLayout(spacing=0.0214, solo_angle_deg=angle)

    def test_missing_geometry_rejected(self):
        with pytest.raises(ValueError):
            synth_sido(basic_config())

    def test_delay_bounded_by_physical_limit(self):
        for angle in (10.0, 45.0, 90.0):
            layout = SidoLayout(spacing=0.02, solo_angle_deg=angle)
            assert layout.solo_delay_samples(44100) <= 0.02 * 44100 / 343.0 + 1e-9


class TestFractionalDelay:
    def test_integer_delay_exact(self):
        x = np.arange(20.0)
        y = fractional_delay(x, 3.0)
        assert np.array_equal(y[3:], x[:-3])
        assert np.all(y[:3] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 15, 16, 31, 32, 33]) | st.integers(1, 3000),
        delay=st.sampled_from([0.0, -0.0, 0.5, 7.5, -7.5, 15.25, 16.5, -16.5, 40.0, -40.0])
        | st.floats(-3500.0, 3500.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gives_the_parent_bytes(self, n, delay, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        y = fractional_delay(x, delay)
        assert y.shape == x.shape
        assert y.tobytes() == parent_fractional_delay(x, delay).tobytes()

    def test_fractional_delay_holds_one_take_length_array(self):
        x = np.random.default_rng(8).standard_normal(44100 * 20)
        peak = traced_peak(lambda: fractional_delay(x, 0.9995))
        assert peak <= 8 * (len(x) + 31) + 2**16

    @pytest.mark.parametrize("delay", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_rejected(self, delay):
        with pytest.raises(ValueError, match=f"delay must be finite, got {delay}"):
            fractional_delay(np.ones(8), delay)

    def test_fractional_delay_of_sine(self):
        fs = 44100
        t = np.arange(4096) / fs
        x = np.sin(2 * np.pi * 1000.0 * t)
        y = fractional_delay(x, 0.5)
        expected = np.sin(2 * np.pi * 1000.0 * (t - 0.5 / fs))
        inner = slice(64, 4096 - 64)
        assert np.allclose(y[inner], expected[inner], atol=1e-3)


class TestCalibrateLatency:
    def test_zero_lag_for_identical(self):
        rng = np.random.default_rng(1)
        x = AudioBuffer(rng.standard_normal(4000))
        assert calibrate_latency(x, x.copy(), 256) == 0

    def test_recovers_known_delay(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(8000)
        rec = np.zeros(8000)
        rec[32:] = ref[:-32]
        assert calibrate_latency(AudioBuffer(rec), AudioBuffer(ref), 256) == 32

    def test_robust_to_noise(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ref = rng.standard_normal(8000)
            rec = np.zeros(8000)
            rec[32:] = ref[:-32]
            rec += 0.1 * rng.standard_normal(8000)  # -20 dB
            assert calibrate_latency(AudioBuffer(rec), AudioBuffer(ref), 256) == 32

    def test_silent_input_raises(self):
        with pytest.raises(NoSignalError):
            calibrate_latency(AudioBuffer(np.zeros(100)), AudioBuffer(np.zeros(100)), 10)

    @pytest.mark.parametrize("where", ["recorded", "reference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, where, bad):
        # a NaN made every correlation NaN, and argmax returned lag 0
        rng = np.random.default_rng(4)
        rec, ref = rng.standard_normal((2, 1000))
        (rec if where == "recorded" else ref)[10] = bad
        with pytest.raises(FloatingPointError, match=r"recorded/reference"):
            calibrate_latency(AudioBuffer(rec), AudioBuffer(ref), 100)

    def test_bad_max_lag_rejected(self):
        x = AudioBuffer(np.ones(100))
        with pytest.raises(ValueError):
            calibrate_latency(x, x, 100)

    @pytest.mark.parametrize("max_lag", [2.5, True, np.nan, "1", -1, 2.0])
    def test_max_lag_that_is_no_integer_rejected(self, max_lag):
        # 2.5 was a TypeError from slicing, and True a lag of 1
        x = AudioBuffer(np.ones(100))
        with pytest.raises(ValueError, match=r"^max_lag must be an integer from 0 to 99, got "):
            calibrate_latency(x, x, max_lag)

    @pytest.mark.parametrize("max_lag", [0, np.int64(0), np.int32(5)])
    def test_zero_and_numpy_integer_max_lag_accepted(self, max_lag):
        rng = np.random.default_rng(3)
        x = AudioBuffer(rng.standard_normal(100))
        assert calibrate_latency(x, x.copy(), max_lag) == 0


class TestGenerators:
    def test_solo_deterministic_and_normalized(self):
        a = noise_plus_tones(2.0, seed=5)
        b = noise_plus_tones(2.0, seed=5)
        assert np.array_equal(a.samples, b.samples)
        assert a.rms() == pytest.approx(0.05, rel=1e-6)

    def test_accompaniment_deterministic(self):
        a = broadband_accompaniment(2.0, seed=5)
        b = broadband_accompaniment(2.0, seed=5)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("fs", [8000, 11025])
    def test_accompaniment_below_16_khz(self, fs):
        # the 6-kHz hat high-pass is capped below Nyquist
        a = broadband_accompaniment(1.0, fs, seed=17)
        assert np.all(np.isfinite(a.samples))
        assert a.rms() == pytest.approx(0.05, rel=1e-6)

    @pytest.mark.parametrize("fs", [8000, 11025, 44100, 48000])
    @pytest.mark.parametrize("seed", [0, 17, 83])
    def test_accompaniment_matches_per_partial_sines(self, fs, seed):
        # 2.3 s: the last chord is partial; the 0.9-Nyquist cut bites at 8 and 11.025 kHz
        fast = broadband_accompaniment(2.3, fs, seed=seed).samples
        loop = loop_broadband_accompaniment(2.3, fs, seed=seed).samples
        assert fast.shape == loop.shape
        assert np.max(np.abs(fast - loop)) <= 1e-9 * np.max(np.abs(loop))

    @pytest.mark.parametrize("fs", [8000, 44100])
    def test_accompaniment_draws_the_same_random_stream(self, fs, monkeypatch):
        fast = generator_states(monkeypatch, broadband_accompaniment, 1.7, fs, 5)
        loop = generator_states(monkeypatch, loop_broadband_accompaniment, 1.7, fs, 5)
        assert len(fast) == 2 and fast == loop

    @pytest.mark.parametrize("generate", [noise_plus_tones, broadband_accompaniment])
    @pytest.mark.parametrize("duration", [0.0, 1e-9, -1.0, np.nan, np.inf, -np.inf])
    def test_duration_without_samples_rejected(self, generate, duration):
        with pytest.raises(ValueError, match="duration"):
            generate(duration, 44100, seed=1)

    @pytest.mark.parametrize("generate", [noise_plus_tones, broadband_accompaniment])
    def test_one_sample_duration(self, generate):
        assert len(generate(1 / 44100, 44100, seed=1)) == 1

    def test_generators_differ_across_seeds(self):
        assert not np.array_equal(
            noise_plus_tones(1.0, seed=1).samples, noise_plus_tones(1.0, seed=2).samples
        )


def scene_bytes(scene):
    """Everything a scene holds, as bytes, and its gain."""
    arrays = [scene.mixture, scene.reference, scene.reference_solo]
    if scene.is_sido:
        arrays.append(scene.mixture2)
    return [a.samples.tobytes() for a in arrays], scene.accompaniment_gain


class TestInPlaceSynthesis:
    """The builders work in place; each must give the bytes of its out-of-place original and
    hold no more take-length arrays at its peak than its result needs."""

    #: Peak above the inputs: the take-length arrays each builder may hold, plus this slack.
    SLACK = 2**20

    @pytest.mark.parametrize("fs", [8000, 44100, 48000])
    @pytest.mark.parametrize("duration,seed", [(0.37, 0), (1.013, 17), (2.0001, 5)])
    def test_solo_matches_parent(self, fs, duration, seed):
        fast = noise_plus_tones(duration, fs, seed=seed).samples
        assert fast.tobytes() == parent_noise_plus_tones(duration, fs, seed=seed).samples.tobytes()

    @pytest.mark.parametrize("fs", [8000, 44100, 48000])
    @pytest.mark.parametrize("channel_delay", [0, 32, 7.5], ids=["none", "integer", "fraction"])
    @pytest.mark.parametrize("solo_angle", [None, 0.0, 21.3, -40.0],
                             ids=["siso", "sido-integer", "sido-fraction", "sido-negative"])
    @pytest.mark.parametrize("gain", [None, 0.5], ids=["level-diff", "gain"])
    def test_synthesis_matches_parent(self, fs, channel_delay, solo_angle, gain):
        duration = 1.0213  # not a whole number of FIR blocks or chords
        cfg = SceneConfig(
            solo=noise_plus_tones(duration, fs, seed=3),
            accompaniment_reference=broadband_accompaniment(duration, fs, seed=3),
            mic_ir=make_mic_ir(13.7, 606, seed=1, sample_rate=fs),
            channel_delay=channel_delay,
            level_diff_db=None if gain is not None else 6.02,
            accompaniment_gain=gain,
            sido=None if solo_angle is None else SidoLayout(0.0214, solo_angle),
        )
        synth, parent = (synth_siso, parent_synth_siso) if cfg.sido is None else (
            synth_sido, parent_synth_sido)
        assert scene_bytes(synth(cfg)) == scene_bytes(parent(cfg))

    def test_solo_peak(self):
        n = 20 * 44100
        assert traced_peak(lambda: noise_plus_tones(20.0, 44100, seed=1)) <= 2 * 8 * n + self.SLACK

    def test_accompaniment_peak(self):
        broadband_accompaniment(0.1, 44100, seed=1)  # scipy.signal is imported before tracing
        n = 20 * 44100
        peak = traced_peak(lambda: broadband_accompaniment(20.0, 44100, seed=1))
        assert peak <= 3 * 8 * n + self.SLACK

    @pytest.mark.parametrize("synth,arrays", [(synth_siso, 3), (synth_sido, 3)])
    def test_synthesis_peak(self, synth, arrays):
        n = 20 * 44100
        cfg = basic_config(n, sido=SidoLayout(0.0214, 21.3))  # synth_siso ignores the layout
        synth(basic_config(4410, sido=cfg.sido))  # scipy.fft is imported before tracing
        assert traced_peak(lambda: synth(cfg)) <= arrays * 8 * n + self.SLACK


class TestKvFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scene.cfg"
        write_kv(path, {"level_diff": 6.02, "kappa": 32, "name": "scene one"})
        back = read_kv(path)
        assert back == {"level_diff": "6.02", "kappa": "32", "name": "scene one"}

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("# header\n\nkappa=32  # trailing\n")
        assert read_kv(path) == {"kappa": "32"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("not a pair\n")
        with pytest.raises(ValueError):
            read_kv(path)


#: Inputs for the calls of ``TestStartUp``, in a script that a fresh interpreter runs too.
START_UP_INPUTS = """
import hashlib
import numpy as np
import solocancel as sc
rng = np.random.default_rng(4)
mix = sc.AudioBuffer(rng.standard_normal(4000))
ref = sc.AudioBuffer(rng.standard_normal(4000))
"""


class TestStartUp:
    """scipy dominates the package's import time and only some calls need it: a fresh
    interpreter must not load it on ``import solocancel``, and each call that needs it
    imports it on first use."""

    def test_import_loads_no_scipy(self, fresh_python):
        assert fresh_python("import solocancel\nprint(scipy_modules())") == ["[]"]

    @pytest.mark.parametrize("call", [
        "sc.anc_cancel(mix, ref, sc.AncConfig(16, 0.1)).samples",
        "sc.maw_cancel(mix, ref, sc.BlockWienerConfig(31, 512, 256)).samples",
        "sc.block_wiener(sc.AudioBuffer(ref.samples[:542]), sc.AudioBuffer(mix.samples[:512]),"
        " 31).taps",
        "sc.make_mic_ir().apply(mix).samples",
    ])
    def test_call_works_before_scipy_is_loaded(self, call, fresh_python):
        """A fresh interpreter that has not loaded scipy gives the bytes this one gives."""
        digest = f"hashlib.sha256({call}.tobytes()).hexdigest()"
        namespace = {}
        exec(START_UP_INPUTS, namespace)
        expected = eval(digest, namespace)
        lines = fresh_python(f"{START_UP_INPUTS}print(scipy_modules())\nprint({digest})")
        assert lines == ["[]", expected]


def test_mic_response_without_taps_rejected():
    with pytest.raises(ValueError, match="length"):
        make_mic_ir(13.7, 0)


def test_silent_accompaniment_reference_rejected():
    cfg = basic_config(accompaniment_reference=AudioBuffer(np.zeros(44100), 44100))
    with pytest.raises(ValueError, match="accompaniment reference is silent"):
        synth_siso(cfg)
