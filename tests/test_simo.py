import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solocancel import (
    ArrayGeometry,
    AudioBuffer,
    NoSignalError,
    SbwConfig,
    angle_from_delay,
    delay_from_angle,
    estimate_delay,
    half_wavelength_spacing,
    make_window,
    mrc_combine,
    sbw_cancel,
    sbw_simo_cancel,
    stft,
)
from solocancel.simo import _frame_delays


def geometry(spacing=None, f_max=8000.0):
    if spacing is None:
        spacing = half_wavelength_spacing(f_max)
    return ArrayGeometry(spacing=spacing, f_max=f_max, sample_rate=44100)


def rotate(frame, kappa):
    n_bins = len(frame)
    n = 2 * (n_bins - 1)
    return frame * np.exp(-2j * np.pi * kappa * np.arange(n_bins) / n)


def loop_frame_delays(
    est1: np.ndarray,
    est2: np.ndarray,
    geometry: ArrayGeometry,
    median_window: int = 5,
) -> np.ndarray:
    """Oracle: the per-frame loop that ``_frame_delays`` replaced."""
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
    filled = raw[pick]
    half = median_window // 2
    smoothed = np.empty(num_frames)
    for t in range(num_frames):
        lo = max(0, t - half)
        hi = min(num_frames, t + half + 1)
        smoothed[t] = np.median(filled[lo:hi])
    return smoothed


#: Frame kinds for the delay-track property test: an unrelated pair, a silent
#: frame, one below the energy floor, one whose energy lies above the alias-free
#: bins (estimate_delay raises NoSignalError), and identical channels.
FRAME_KINDS = ("random", "silent", "faint", "high_only", "identical")


class TestGeometry:
    def test_half_wavelength_reference_value(self):
        assert half_wavelength_spacing(8000.0, 343.0) == pytest.approx(0.0214, abs=5e-5)

    def test_spacing_limit_enforced(self):
        with pytest.raises(ValueError):
            ArrayGeometry(spacing=0.05, f_max=8000.0)

    def test_angle_delay_round_trip(self):
        geo = geometry()
        bound = (44100 / 2) / 8000.0
        for kappa in np.linspace(-bound, bound, 11):
            theta = angle_from_delay(kappa, geo)
            assert delay_from_angle(theta, geo) == pytest.approx(kappa, abs=1e-9)

    def test_reference_scene_angle(self):
        geo = geometry(spacing=0.0214)
        kappa = geo.spacing * np.sin(np.radians(21.3)) * 44100 / 343.0
        assert kappa == pytest.approx(1.0, abs=0.01)


class TestEstimateDelay:
    def test_identical_frames_zero_delay(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2049) + 1j * rng.standard_normal(2049)
        est = estimate_delay(x, x.copy(), geometry())
        assert est.kappa == pytest.approx(0.0, abs=1e-12)
        assert est.theta_deg == pytest.approx(0.0, abs=1e-12)

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
        win = make_window("kbd", 4096, 4.0)
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

    @pytest.mark.parametrize("fs", [22050, 16000])
    def test_low_sample_rates_run(self, fs):
        rng = np.random.default_rng(10)
        x1, x2, ref = (AudioBuffer(0.1 * rng.standard_normal(fs), fs) for _ in range(3))
        out = sbw_simo_cancel(x1, x2, ref)
        assert len(out) == fs and out.sample_rate == fs
        assert np.all(np.isfinite(out.samples))

    def test_channel_length_mismatch_rejected(self):
        fs = 44100
        with pytest.raises(ValueError):
            sbw_simo_cancel(
                AudioBuffer(np.zeros(fs), fs),
                AudioBuffer(np.zeros(fs - 1), fs),
                AudioBuffer(np.zeros(fs), fs),
            )


class TestFrameDelays:
    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(FRAME_KINDS), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_frame_loop(self, kinds, seed):
        rng = np.random.default_rng(seed)
        n_bins = 65  # fft 128: bins 1..19 lie below the alias cap of the default geometry
        est1 = np.zeros((len(kinds), n_bins), dtype=complex)
        est2 = np.zeros_like(est1)
        for t, kind in enumerate(kinds):
            a = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
            b = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
            if kind == "random":
                est1[t], est2[t] = a, b
            elif kind == "faint":
                est1[t], est2[t] = 1e-5 * a, b
            elif kind == "high_only":
                est1[t, 30:], est2[t, 30:] = a[30:], b[30:]
            elif kind == "identical":
                est1[t], est2[t] = a, a
        geo = geometry()
        got = _frame_delays(est1, est2, geo)
        assert got.tobytes() == loop_frame_delays(est1, est2, geo).tobytes()
