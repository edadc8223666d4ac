import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solocancel import (
    ArrayGeometry,
    AudioBuffer,
    NoSignalError,
    SbwConfig,
    SceneConfig,
    SidoLayout,
    broadband_accompaniment,
    delay_from_angle,
    estimate_delay,
    half_wavelength_spacing,
    make_mic_ir,
    make_window,
    mrc_combine,
    noise_plus_tones,
    sbw_cancel,
    sbw_simo_cancel,
    snrf,
    stft,
    synth_sido,
)
from solocancel.simo import _delay_track


def geometry(spacing=None, f_max=8000.0):
    if spacing is None:
        spacing = half_wavelength_spacing(f_max)
    return ArrayGeometry(spacing=spacing, f_max=f_max, sample_rate=44100)


def rotate(frame, kappa):
    n_bins = len(frame)
    n = 2 * (n_bins - 1)
    return frame * np.exp(-2j * np.pi * kappa * np.arange(n_bins) / n)


def causal_track(mix1, est1, est2, geometry: ArrayGeometry) -> np.ndarray:
    """Oracle: the delay track frame by frame. A frame's estimate reads channel 1's
    cancelled bins with zeros where they keep less than 0.9 of the mixture's
    magnitude. Each frame's delay is ``np.median`` of the last five estimates that
    did not fail or read NaN, up to and including that frame, and 0 before the
    first."""
    found = []
    delays = np.zeros(est1.shape[0])
    for t in range(est1.shape[0]):
        solo = est1[t].copy()
        solo[np.abs(est1[t]) < 0.9 * np.abs(mix1[t])] = 0.0
        try:
            kappa = estimate_delay(solo, est2[t], geometry).kappa
        except NoSignalError:
            kappa = np.nan
        if not np.isnan(kappa):
            found.append(kappa)
        if found:
            delays[t] = np.median(found[-5:])
    return delays


def loop_mrc_combine(frame1, frame2, kappa):
    """Oracle: the complex-exp rotation built for every frame, row by row."""
    frame1 = np.atleast_2d(frame1)
    frame2 = np.atleast_2d(frame2)
    n_bins = frame1.shape[-1]
    fft_size = 2 * (n_bins - 1)
    kappa = np.broadcast_to(kappa, frame1.shape[:-1])
    out = np.empty_like(frame1)
    for t in range(frame1.shape[0]):
        rot = np.exp(2j * np.pi * kappa[t] * np.arange(n_bins) / fft_size)
        out[t] = 0.5 * (frame1[t] + rot * frame2[t])
    return out


def median_estimate_delay(frame1, frame2, geometry):
    """Oracle: the delay estimate with ``np.median`` and ``np.clip``, returned as
    (kappa, confidence), or the ``NoSignalError`` message."""
    n_bins = frame1.shape[0]
    fft_size = 2 * (n_bins - 1)
    kappa_max = geometry.max_delay_samples + 0.5
    cap = max(1, min(n_bins - 1, int(fft_size / (2.0 * kappa_max))))
    mags = np.abs(frame1[1 : cap + 1])
    peak = np.max(np.abs(frame1))
    if peak <= 0.0:
        return "reference channel frame is silent"
    keep = mags >= 0.01 * peak
    if not np.any(keep):
        return "no bins above the retention threshold"
    bins = np.arange(1, cap + 1)[keep]
    ratio_phase = np.angle(frame2[bins] * np.conj(frame1[bins]))
    obs = -ratio_phase * fft_size / (2.0 * np.pi * bins)
    kappa = float(np.clip(np.median(obs), -kappa_max, kappa_max))
    return kappa, float(np.count_nonzero(keep)) / (n_bins - 1)


def estimate_or_message(frame1, frame2, geometry):
    try:
        est = estimate_delay(frame1, frame2, geometry)
    except NoSignalError as err:
        return str(err)
    return est.kappa, est.confidence


def same_bits(a, b):
    """Equal results, floats compared by their bytes (NaN and signed zeros included)."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array(a).tobytes() == np.array(b).tobytes()


#: Frame kinds for the delay-track property test: an unrelated pair, a silent
#: frame, a faint one, one whose energy lies above the alias-free bins
#: (estimate_delay raises NoSignalError), identical channels, a NaN in
#: channel 2's lowest bins (the estimate reads NaN and does not count), and one
#: whose every bin the accompaniment dominates (none is solo-dominant).
FRAME_KINDS = ("random", "silent", "faint", "high_only", "identical", "nan", "masked")


class TestGeometry:
    def test_half_wavelength_reference_value(self):
        assert half_wavelength_spacing(8000.0) == pytest.approx(0.0214, abs=5e-5)

    def test_spacing_limit_enforced(self):
        with pytest.raises(ValueError):
            ArrayGeometry(spacing=0.05, f_max=8000.0)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf])
    def test_non_finite_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacing") as err:
            ArrayGeometry(spacing=spacing, f_max=8000.0)
        assert "f_max" not in str(err.value)  # the array's f_max is fine

    @pytest.mark.parametrize("f_max", [np.nan, 0.0, -8000.0])
    def test_bad_f_max_rejected(self, f_max):
        with pytest.raises(ValueError, match=rf"^f_max must be finite and > 0, got {f_max}$"):
            ArrayGeometry(spacing=0.01, f_max=f_max)

    @pytest.mark.parametrize("spacing", [np.nan, 0.0, -0.02])
    def test_layout_names_its_bad_spacing(self, spacing):
        with pytest.raises(ValueError, match=rf"^spacing must be finite and > 0, got {spacing}$"):
            SidoLayout(spacing=spacing, solo_angle_deg=0.0)  # at construction, not in geometry()

    def test_angle_delay_round_trip(self):
        geo = geometry()
        bound = (44100 / 2) / 8000.0
        for kappa in np.linspace(-bound, bound, 11):
            theta = math.degrees(math.asin(kappa / geo.max_delay_samples))
            assert delay_from_angle(theta, geo) == pytest.approx(kappa, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        sample_rate=st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000, 96000]),
        f_max=st.floats(500.0, 48000.0),
        fraction=st.floats(1e-3, 1.0),
        theta=st.floats(-90.0, 90.0),
    )
    def test_one_delay_law(self, sample_rate, f_max, fraction, theta):
        f_max = min(f_max, sample_rate / 2)
        spacing = fraction * half_wavelength_spacing(f_max)
        geo = ArrayGeometry(spacing=spacing, f_max=f_max, sample_rate=sample_rate)
        layout = SidoLayout(spacing, theta, 90.0, f_max)
        kappa = delay_from_angle(theta, geo)
        assert kappa == layout.solo_delay_samples(sample_rate)  # bitwise: the scene's delay
        # the law is the sine of the angle, scaled by the delay at 90 degrees
        assert math.degrees(math.asin(kappa / geo.max_delay_samples)) == pytest.approx(
            theta, abs=1e-5)

    def test_reference_scene_angle(self):
        geo = geometry(spacing=0.0214)
        kappa = geo.spacing * np.sin(np.radians(21.3)) * 44100 / 343.0
        assert kappa == pytest.approx(1.0, abs=0.01)


class TestEstimateDelay:
    def test_identical_frames_zero_delay(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2049) + 1j * rng.standard_normal(2049)
        geo = geometry()
        est = estimate_delay(x, x.copy(), geo)
        assert est.kappa == pytest.approx(0.0, abs=1e-12)

    def test_exact_synthesized_rotation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2049) + 1j * rng.standard_normal(2049)
        geo = ArrayGeometry(spacing=0.03, f_max=5000.0, sample_rate=44100)
        est = estimate_delay(x, rotate(x, 3.0), geo)
        assert est.kappa == pytest.approx(3.0, abs=1e-6)

    def test_time_domain_broadband_delay(self):
        rng = np.random.default_rng(2)
        fs = 44100
        sig = rng.standard_normal(fs)
        delayed = np.zeros(fs)
        delayed[3:] = sig[:-3]
        win = make_window(4096, 4.0)
        f1 = stft(AudioBuffer(sig, fs), win, 2048).frames[4]
        f2 = stft(AudioBuffer(delayed, fs), win, 2048).frames[4]
        geo = ArrayGeometry(spacing=0.03, f_max=5000.0, sample_rate=fs)
        est = estimate_delay(f1, f2, geo)
        assert 2.9 <= est.kappa <= 3.1

    def test_silent_input_raises(self):
        zero = np.zeros(129, dtype=complex)
        with pytest.raises(NoSignalError):
            estimate_delay(zero, zero, geometry())

    def test_confidence_fraction(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        est = estimate_delay(x, x.copy(), geometry())
        assert 0.0 < est.confidence <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        n_bins=st.sampled_from([17, 65, 129, 1001]),
        kept=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        nan_bin=st.booleans(),
    )
    def test_matches_median_oracle(self, n_bins, kept, seed, nan_bin):
        # ``kept`` loud bins below the alias cap, the rest 1e-3 of the peak or less:
        # odd and even kept counts, one kept bin, and none (NoSignalError).
        rng = np.random.default_rng(seed)
        geo = geometry()
        frame1 = 1e-3 * rng.uniform(0.0, 1.0, n_bins) * np.exp(2j * np.pi * rng.uniform(size=n_bins))
        frame2 = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        frame1[rng.choice(np.arange(1, n_bins), size=min(kept, n_bins - 1), replace=False)] *= 1e4
        if nan_bin:  # NaN propagates through the median as in np.median
            frame2[rng.integers(1, 4)] = np.nan
        got = estimate_or_message(frame1, frame2, geo)
        assert same_bits(got, median_estimate_delay(frame1, frame2, geo))

    @pytest.mark.parametrize(
        "frame1, message",
        [
            (np.zeros(129, dtype=complex), "reference channel frame is silent"),
            (np.r_[np.zeros(100), np.ones(29)].astype(complex), "no bins above the retention threshold"),
            (np.full(129, np.nan, dtype=complex), "no bins above the retention threshold"),
        ],
        ids=["silent", "energy-above-alias-cap", "nan-frame"],
    )
    def test_no_signal_branches_match_oracle(self, frame1, message):
        frame2 = np.ones(129, dtype=complex)
        assert median_estimate_delay(frame1, frame2, geometry()) == message
        with pytest.raises(NoSignalError, match=message):
            estimate_delay(frame1, frame2, geometry())

    @pytest.mark.parametrize("nan_observation", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 5, 6])
    def test_odd_and_even_kept_counts(self, count, nan_observation):
        rng = np.random.default_rng(count)
        frame1 = np.zeros(129, dtype=complex)
        frame1[1 : count + 1] = 1.0
        frame2 = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        if nan_observation:
            frame2[1] = np.nan
        geo = geometry()
        got = estimate_delay(frame1, frame2, geo)
        assert got.confidence == count / 128
        assert np.isnan(got.kappa) == nan_observation
        assert same_bits(
            (got.kappa, got.confidence),
            median_estimate_delay(frame1, frame2, geo),
        )

    def test_estimate_respects_physical_bound(self):
        rng = np.random.default_rng(12)
        geo = geometry()
        bound = geo.max_delay_samples + 0.5
        for seed in range(20):
            r = np.random.default_rng(seed)
            a = r.standard_normal(257) + 1j * r.standard_normal(257)
            b = r.standard_normal(257) + 1j * r.standard_normal(257)
            est = estimate_delay(a, b, geo)  # unrelated frames: noisy median
            assert abs(est.kappa) <= bound + 1e-12


class TestMrcCombine:
    def test_zero_delay_identical_frames(self):
        rng = np.random.default_rng(4)
        e1 = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        out = mrc_combine(e1, e1.copy(), 0.0)
        assert np.array_equal(out, e1)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 2.5])
    def test_perfect_counter_rotation(self, kappa):
        rng = np.random.default_rng(5)
        e1 = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        out = mrc_combine(e1, rotate(e1, kappa), kappa)
        assert np.allclose(out, e1, atol=1e-12)

    def test_brute_force_formula(self):
        rng = np.random.default_rng(6)
        n_bins = 65
        n = 2 * (n_bins - 1)
        e1 = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        e2 = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        kappa = 1.37
        out = mrc_combine(e1, e2, kappa)
        for w in range(n_bins):
            expected = 0.5 * (e1[w] + np.exp(2j * np.pi * kappa * w / n) * e2[w])
            assert out[w] == pytest.approx(expected, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        shape = 129
        x, y, u, v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4))
        a, b, kappa = 2.0, -0.5, 0.8
        lhs = mrc_combine(a * x + b * y, a * u + b * v, kappa)
        rhs = a * mrc_combine(x, u, kappa) + b * mrc_combine(y, v, kappa)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        n_bins=st.sampled_from([65, 1001, 1501]),  # FFT sizes 128, 2000 and 3000
        kappas=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.2, -0.2, 0.999, 1.75, np.nan]),
                st.floats(-3.0, 3.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_by_row_rotation(self, n_bins, kappas, seed):
        # Few distinct delays among many frames, as on a take: repeated values,
        # one value, NaN and signed zeros. A NaN delay is rejected, not spread over its frame.
        rng = np.random.default_rng(seed)
        shape = (len(kappas), n_bins)
        e1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        e2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kappa = np.array(kappas)
        if np.isnan(kappa).any():
            for delay in (kappa, np.nan):
                with pytest.raises(ValueError, match=r"^kappa must be finite, got nan$"):
                    mrc_combine(e1, e2, delay)
            return
        assert mrc_combine(e1, e2, kappa).tobytes() == loop_mrc_combine(e1, e2, kappa).tobytes()
        same = np.full(len(kappas), kappas[0])
        assert mrc_combine(e1, e2, same).tobytes() == loop_mrc_combine(e1, e2, same).tobytes()
        # A scalar delay on one frame and on the stack.
        got = mrc_combine(e1[0], e2[0], kappas[0])
        assert got.shape == (n_bins,)
        assert got.tobytes() == loop_mrc_combine(e1[0], e2[0], kappas[0]).tobytes()
        assert mrc_combine(e1, e2, kappas[0]).tobytes() == loop_mrc_combine(e1, e2, same).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_per_frame_rejected(self, bad):
        # a NaN or inf delay would make its frame's spectrum NaN
        e = np.ones((3, 65), dtype=complex)
        with pytest.raises(ValueError, match=rf"^kappa must be finite, got {bad}$"):
            mrc_combine(e, e, np.array([0.5, bad, 0.5]))

    def test_one_delay_on_one_frame_rejected(self):
        e1 = np.ones(2049, dtype=complex)
        with pytest.raises(ValueError, match=r"\(1,\).*\(2049,\)"):
            mrc_combine(e1, e1, np.array([0.5]))

    def test_wrong_number_of_delays_rejected(self):
        e1 = np.ones((4, 65), dtype=complex)
        with pytest.raises(ValueError, match=r"\(3,\).*\(4, 65\)"):
            mrc_combine(e1, e1, np.zeros(3))

    def test_per_frame_and_zero_d_delays_accepted(self):
        e1 = np.ones((4, 65), dtype=complex)
        assert mrc_combine(e1, e1, np.zeros(4)).shape == (4, 65)
        assert mrc_combine(e1, e1, np.array(0.5)).shape == (4, 65)
        assert mrc_combine(e1[0], e1[0], np.array(0.5)).shape == (65,)


class TestSbwSimoCancel:
    def test_degenerate_array_matches_single_channel(self):
        rng = np.random.default_rng(8)
        fs = 44100
        mix = AudioBuffer(0.2 * rng.standard_normal(fs), fs)
        ref = AudioBuffer(0.2 * rng.standard_normal(fs), fs)
        cfg = SbwConfig(fft_size=1024, hop=512, num_bands=16)
        single = sbw_cancel(mix, ref, cfg)
        double = sbw_simo_cancel(mix, mix.copy(), ref, cfg, geometry(), kappa=0.0)
        assert np.array_equal(single.samples, double.samples)

    def test_estimated_delay_path_runs(self):
        rng = np.random.default_rng(9)
        fs = 44100
        solo = 0.2 * rng.standard_normal(fs)
        x1 = AudioBuffer(solo, fs)
        x2 = AudioBuffer(np.concatenate([[0.0], solo[:-1]]), fs)
        ref = AudioBuffer(np.zeros(fs), fs)
        cfg = SbwConfig(fft_size=1024, hop=512, num_bands=16)
        out = sbw_simo_cancel(x1, x2, ref, cfg, geometry())
        assert len(out) == fs
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("fs", [22050, 16000, 8000])
    def test_low_sample_rates_run(self, fs):
        rng = np.random.default_rng(10)
        x1, x2, ref = (AudioBuffer(0.1 * rng.standard_normal(fs), fs) for _ in range(3))
        out = sbw_simo_cancel(x1, x2, ref)
        assert len(out) == fs and out.sample_rate == fs
        assert np.all(np.isfinite(out.samples))

    def test_geometry_at_another_sample_rate_rejected(self):
        # ArrayGeometry defaults to 44.1 kHz: its delay law is wrong for this take.
        fs = 22050
        rng = np.random.default_rng(11)
        x1, x2, ref = (AudioBuffer(0.1 * rng.standard_normal(fs // 4), fs) for _ in range(3))
        with pytest.raises(ValueError, match="sample rate"):
            sbw_simo_cancel(x1, x2, ref, SbwConfig(fft_size=1024, hop=512), ArrayGeometry(0.0214))

    def test_beats_single_channel_on_criterion_6_scene(self):
        # The acceptance comparison's two-microphone scene: 20 s, seed 17, channel
        # delay 32, +6.02 dB, solo at 21.3 degrees on a 2.14-cm array.
        fs, seed = 44100, 17
        scene = synth_sido(
            SceneConfig(
                solo=noise_plus_tones(20.0, fs, seed=seed),
                accompaniment_reference=broadband_accompaniment(20.0, fs, seed=seed),
                mic_ir=make_mic_ir(13.7, 606, seed=seed),
                channel_delay=32,
                level_diff_db=6.02,
                sido=SidoLayout(spacing=0.0214, solo_angle_deg=21.3, accomp_angle_deg=90.0),
            )
        )
        geo = ArrayGeometry(spacing=0.0214, f_max=8000.0, sample_rate=fs)
        single = snrf(sbw_cancel(scene.mixture, scene.reference), scene.reference_solo)
        combined = snrf(
            sbw_simo_cancel(scene.mixture, scene.mixture2, scene.reference, None, geo),
            scene.reference_solo,
        )
        assert combined >= single + 0.1, (combined, single)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
    def test_non_finite_fixed_delay_rejected(self, kappa, monkeypatch):
        def no_work(*args):
            raise AssertionError("the take was processed")

        monkeypatch.setattr("solocancel.simo._wola", no_work)
        fs = 44100
        x1, x2, ref = (AudioBuffer(np.zeros(fs), fs) for _ in range(3))
        with pytest.raises(ValueError, match="kappa must be finite"):
            sbw_simo_cancel(x1, x2, ref, kappa=kappa)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("past", ["far", "next-float"])
    def test_fixed_delay_past_the_array_rejected(self, sign, past, monkeypatch):
        def no_work(*args):
            raise AssertionError("the take was processed")

        monkeypatch.setattr("solocancel.simo._wola", no_work)
        fs = 44100
        geo = ArrayGeometry(spacing=0.0214, sample_rate=fs)
        bound = geo.max_delay_samples + 0.5  # the kappa_max estimate_delay searches
        kappa = sign * (1e20 if past == "far" else np.nextafter(bound, np.inf))
        x1, x2, ref = (AudioBuffer(np.zeros(fs), fs) for _ in range(3))
        with pytest.raises(ValueError, match="kappa .* beyond the array's delay bound"):
            sbw_simo_cancel(x1, x2, ref, None, geo, kappa=kappa)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fixed_delay_at_the_bound_accepted(self, sign, monkeypatch):
        ran = []
        monkeypatch.setattr("solocancel.simo._wola", lambda *args: ran.append(args) or "estimate")
        fs = 44100
        geo = ArrayGeometry(spacing=0.0214, sample_rate=fs)
        kappa = sign * (geo.max_delay_samples + 0.5)
        x1, x2, ref = (AudioBuffer(np.zeros(fs), fs) for _ in range(3))
        assert sbw_simo_cancel(x1, x2, ref, None, geo, kappa=kappa) == "estimate"
        assert len(ran) == 1

    def test_channel_length_mismatch_rejected(self):
        fs = 44100
        with pytest.raises(ValueError):
            sbw_simo_cancel(
                AudioBuffer(np.zeros(fs), fs),
                AudioBuffer(np.zeros(fs - 1), fs),
                AudioBuffer(np.zeros(fs), fs),
            )


def track_frames(kinds, rng, n_bins=65):
    """Channel 1's mixture frames and the cancelled frames of both channels, one per
    entry of ``kinds``; at fft 128, bins 1..19 lie below the alias cap of the
    default geometry. Outside the silent and masked kinds, the mixture is the
    cancelled frame scaled by 0.9-1.3 per bin, so some bins are solo-dominant and
    some sit at the 0.9 bound."""
    est1 = np.zeros((len(kinds), n_bins), dtype=complex)
    est2 = np.zeros_like(est1)
    scale = rng.choice([0.9, 1.0 / 0.9, 1.2, 1.3], size=est1.shape)
    scale[:, ::3] = rng.uniform(0.9, 1.3, size=scale[:, ::3].shape)
    for t, kind in enumerate(kinds):
        a = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        b = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        if kind in ("random", "nan"):
            est1[t], est2[t] = a, b
        elif kind == "faint":
            est1[t], est2[t] = 1e-5 * a, b
        elif kind == "high_only":
            est1[t, 30:], est2[t, 30:] = a[30:], b[30:]
        elif kind == "identical":
            est1[t], est2[t] = a, a
        elif kind == "masked":
            est1[t], est2[t] = 0.5 * a, b
            scale[t] = 2.0
        if kind == "nan":
            est2[t, 1:4] = np.nan
    mix1 = scale * est1
    mix1[np.array(kinds) == "silent"] = 0.0
    return mix1, est1, est2


class TestDelayTrack:
    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(FRAME_KINDS), min_size=1, max_size=40),
        cuts=st.lists(st.integers(1, 39), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_frame_oracle_for_any_blocks(self, kinds, cuts, seed):
        mix1, est1, est2 = track_frames(kinds, np.random.default_rng(seed))
        geo = geometry()
        track = _delay_track(geo)
        edges = [0, *sorted({c for c in cuts if c < len(kinds)}), len(kinds)]
        got = np.concatenate(
            [track(mix1[a:b], est1[a:b], est2[a:b]) for a, b in zip(edges[:-1], edges[1:])]
        )
        assert got.tobytes() == causal_track(mix1, est1, est2, geo).tobytes()

    def test_zero_before_the_first_estimate_then_causal(self):
        # A delay of 1.5 samples from the third frame on: the first two frames read 0,
        # and no frame reads a delay before its own estimate.
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 65)) + 1j * rng.standard_normal((6, 65))
        est1 = a.copy()
        est1[:2] = 0.0
        est2 = np.array([rotate(row, 1.5) for row in a])
        delays = _delay_track(geometry())(est1, est1, est2)  # every bin solo-dominant
        assert delays[:2].tolist() == [0.0, 0.0]
        assert np.allclose(delays[2:], 1.5, atol=1e-9)


@pytest.mark.parametrize("combine,message", [
    (lambda: estimate_delay(np.ones(9), np.ones(8), geometry()), "equal-length 1-D"),
    (lambda: estimate_delay(np.ones((2, 9)), np.ones((2, 9)), geometry()), "equal-length 1-D"),
    (lambda: mrc_combine(np.ones(9), np.ones(8), 0.5), "equal length"),
], ids=["delay-unequal", "delay-stacked", "mrc-unequal"])
def test_mismatched_frames_rejected(combine, message):
    with pytest.raises(ValueError, match=message):
        combine()
