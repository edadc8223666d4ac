import warnings

import numpy as np
import pytest

from solocancel import (
    AudioBuffer, SbwConfig, make_partition, sbw_cancel, spectral_subtract,
)
from solocancel.sbw import cancel_frames, subband_gains_frames


def random_frame(rng, bins):
    return rng.standard_normal(bins) + 1j * rng.standard_normal(bins)


def frame_gains(ref, mix, part):
    """The band gains of one frame pair, as the one-row stack they form."""
    return subband_gains_frames(ref[None], mix[None], part)[0]


def band_bins(part, band):
    """The bin range of band ``band`` (1-based), from the partition's edges."""
    return slice(*part.band_edges[band - 1 : band + 1])


def bin_gains(part, gains):
    """Band gains (last axis) spread over their bins, filled band by band from the edges."""
    out = np.empty(gains.shape[:-1] + (part.num_bins,))
    for band in range(1, part.num_bands + 1):
        out[..., band_bins(part, band)] = gains[..., band - 1 : band]
    return out


class TestSubbandGains:
    def test_identical_frames_give_unit_gain(self):
        rng = np.random.default_rng(0)
        part = make_partition(64, 44100, 4)
        s0 = random_frame(rng, part.num_bins)
        gains = frame_gains(s0, s0.copy(), part)
        assert np.allclose(gains, 1.0, atol=1e-12)

    def test_scaled_mixture_scales_gain(self):
        rng = np.random.default_rng(1)
        part = make_partition(64, 44100, 4)
        s0 = random_frame(rng, part.num_bins)
        gains = frame_gains(s0, 2.0 * s0, part)
        assert np.allclose(gains, 2.0, atol=1e-12)

    def test_brute_force_band_sums(self):
        rng = np.random.default_rng(2)
        part = make_partition(16, 44100, 4)
        s0 = random_frame(rng, part.num_bins)
        x = random_frame(rng, part.num_bins)
        gains = frame_gains(s0, x, part)
        for band in range(1, part.num_bands + 1):
            sl = band_bins(part, band)
            bins = range(sl.start, sl.stop)
            auto = sum(abs(s0[w]) ** 2 for w in bins) / len(bins)
            cross = sum(abs(np.conj(s0[w]) * x[w]) for w in bins) / len(bins)
            assert gains[band - 1] == pytest.approx(cross / auto, abs=1e-12)

    def test_zero_reference_band_gets_zero_gain(self):
        rng = np.random.default_rng(3)
        part = make_partition(64, 44100, 4)
        s0 = random_frame(rng, part.num_bins)
        s0[band_bins(part, 2)] = 0.0
        gains = frame_gains(s0, random_frame(rng, part.num_bins), part)
        assert gains[1] == 0.0
        assert np.all(gains >= 0.0) and np.all(np.isfinite(gains))

    def test_all_zero_reference_frame(self):
        part = make_partition(64, 44100, 4)
        zero = np.zeros(part.num_bins, dtype=complex)
        gains = frame_gains(zero, random_frame(np.random.default_rng(4), 33), part)
        assert np.all(gains == 0.0)

    def test_gain_homogeneity_leaves_match_unchanged(self):
        rng = np.random.default_rng(5)
        part = make_partition(64, 44100, 4)
        s0 = random_frame(rng, part.num_bins)
        x = random_frame(rng, part.num_bins)
        c = 3.7
        g1 = frame_gains(s0, x, part)
        g2 = frame_gains(c * s0, x, part)
        assert np.allclose(g2, g1 / c, rtol=1e-12)
        y1 = bin_gains(part, g1) * s0
        y2 = bin_gains(part, g2) * (c * s0)
        assert np.allclose(y1, y2, rtol=1e-12)


class TestSbwCancel:
    def test_zero_reference_interior_passthrough(self):
        rng = np.random.default_rng(7)
        fs = 44100
        mix = AudioBuffer(rng.standard_normal(fs), fs)
        cfg = SbwConfig(fft_size=1024, hop=512, num_bands=16)
        out = sbw_cancel(mix, AudioBuffer(np.zeros(fs), fs), cfg)
        inner = slice(1024, fs - 1024)
        err = np.linalg.norm(out.samples[inner] - mix.samples[inner])
        assert err / np.linalg.norm(mix.samples[inner]) < 1e-6

    def test_pure_accompaniment_cancelled(self):
        # mixture == reference (solo silent, flat channel): output vanishes
        rng = np.random.default_rng(8)
        fs = 44100
        noise = AudioBuffer(0.3 * rng.standard_normal(5 * fs), fs)
        out = sbw_cancel(noise, noise.copy())
        inner = slice(4096, 5 * fs - 4096)
        level = np.sqrt(np.mean(out.samples[inner] ** 2))
        assert 20 * np.log10(level / noise.rms() + 1e-300) < -40.0

    def test_output_length_and_rate(self):
        rng = np.random.default_rng(9)
        fs = 22050
        mix = AudioBuffer(rng.standard_normal(fs), fs)
        ref = AudioBuffer(rng.standard_normal(fs), fs)
        cfg = SbwConfig(fft_size=512, hop=256, num_bands=8)
        out = sbw_cancel(mix, ref, cfg)
        assert len(out) == fs and out.sample_rate == fs

    def test_output_spectrum_bounded_by_mixture(self):
        rng = np.random.default_rng(10)
        part = make_partition(256, 44100, 8)
        cfg = SbwConfig(fft_size=256, hop=128, num_bands=8)
        mix = np.stack([random_frame(rng, part.num_bins) for _ in range(6)])
        ref = np.stack([random_frame(rng, part.num_bins) for _ in range(6)])
        est = cancel_frames(mix, ref, part, cfg)
        assert np.all(np.abs(est) <= np.abs(mix) + 1e-12)

    def test_zero_exponent_degenerates_to_raw_subtraction(self):
        rng = np.random.default_rng(11)
        part = make_partition(256, 44100, 8)
        cfg = SbwConfig(fft_size=256, hop=128, num_bands=8, wiener_exponent=0.0)
        mix = np.stack([random_frame(rng, part.num_bins)])
        ref = np.stack([random_frame(rng, part.num_bins)])
        est = cancel_frames(mix, ref, part, cfg)
        assert np.array_equal(est, spectral_subtract(mix, ref, cfg.p))

    @pytest.mark.parametrize("exponent", [1.0, 0.5])
    def test_band_gains_expand_to_their_bins(self, exponent):
        # each bin of the matched reference takes its own band's gain, raised to the exponent
        rng = np.random.default_rng(14)
        part = make_partition(256, 44100, 8)
        cfg = SbwConfig(fft_size=256, hop=128, num_bands=8, wiener_exponent=exponent)
        mix = np.stack([random_frame(rng, part.num_bins) for _ in range(3)])
        ref = np.stack([random_frame(rng, part.num_bins) for _ in range(3)])
        g_bin = bin_gains(part, subband_gains_frames(ref, mix, part) ** exponent)
        assert not np.all(g_bin == 1.0)
        est = cancel_frames(mix, ref, part, cfg)
        assert np.array_equal(est, spectral_subtract(mix, g_bin * ref, cfg.p))

    @pytest.mark.parametrize("fs", [22050, 16000])
    def test_low_sample_rates_run(self, fs):
        # the band cutoff falls to Nyquist below 32 kHz
        rng = np.random.default_rng(13)
        mix = AudioBuffer(0.1 * rng.standard_normal(fs), fs)
        ref = AudioBuffer(0.1 * rng.standard_normal(fs), fs)
        out = sbw_cancel(mix, ref)
        assert len(out) == fs and out.sample_rate == fs
        assert np.all(np.isfinite(out.samples))

    def test_config_validation(self):
        fs = 44100
        buf = AudioBuffer(np.zeros(8192), fs)
        with pytest.raises(ValueError):
            sbw_cancel(buf, buf, SbwConfig(fft_size=1024, hop=2048))
        with pytest.raises(ValueError):
            sbw_cancel(buf, buf, SbwConfig(p=0.0))

    @pytest.mark.parametrize("kwargs", [
        {"fft_size": 1024, "hop": 2048},
        {"hop": 0},
        {"p": 0.0},
        {"wiener_exponent": -1.0},
        {"p": np.nan},
        {"wiener_exponent": np.nan},
        {"p": np.inf},
        {"wiener_exponent": np.inf},
    ], ids=["hop-above-fft", "hop-zero", "p", "wiener_exponent",
            "p-nan", "wiener_exponent-nan", "p-inf", "wiener_exponent-inf"])
    def test_config_checked_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            SbwConfig(**kwargs)

    @pytest.mark.parametrize("bands", [0, -5, np.nan, np.inf, 2.5, True])
    def test_band_count_checked_at_construction(self, bands):
        # make_partition's rule, checked before any audio
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"num_bands must be an integer >= 1, got {bands!r}"):
                SbwConfig(num_bands=bands)

    @pytest.mark.parametrize("shape", [np.nan, -1.0, 300.0], ids=["nan", "negative", "300"])
    def test_window_shape_checked_at_construction(self, shape):
        # 300 overflows the Kaiser kernel, so its window would zero every estimate
        with pytest.raises(ValueError, match=r"\bwindow_shape\b"):
            SbwConfig(window_shape=shape)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, True], ids=["nan", "inf", "2.5", "True"])
    @pytest.mark.parametrize("field", ["fft_size", "hop"])
    def test_integer_setting_checked_at_construction(self, field, bad):
        # a ValueError naming the field, not a TypeError once the frames are built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"\b{field}\b"):
                SbwConfig(**{field: bad})

    def test_numpy_integer_settings_accepted(self):
        rng = np.random.default_rng(17)
        mix, ref = (AudioBuffer(rng.standard_normal(6000)) for _ in range(2))
        numpy_cfg = SbwConfig(fft_size=np.int64(1024), hop=np.int32(256), num_bands=np.int16(20))
        cfg = SbwConfig(fft_size=1024, hop=256, num_bands=20)
        assert sbw_cancel(mix, ref, numpy_cfg).samples.tobytes() == (
            sbw_cancel(mix, ref, cfg).samples.tobytes()
        )

    def test_config_default_hop_is_half_the_frame(self):
        assert SbwConfig(fft_size=1024).hop == 512

    def test_config_default_window(self):
        # KBD(4) unless window_shape says otherwise, and the shape reaches the frames
        rng = np.random.default_rng(13)
        mix, ref = (AudioBuffer(rng.standard_normal(8192)) for _ in range(2))
        default = sbw_cancel(mix, ref, SbwConfig(fft_size=1024)).samples.tobytes()
        kbd4 = sbw_cancel(mix, ref, SbwConfig(fft_size=1024, window_shape=4)).samples.tobytes()
        kbd6 = sbw_cancel(mix, ref, SbwConfig(fft_size=1024, window_shape=6.0)).samples.tobytes()
        assert SbwConfig().window_shape == 4.0 and default == kbd4 and default != kbd6

    def test_runtime_budget(self):
        import time

        rng = np.random.default_rng(12)
        fs = 44100
        mix = AudioBuffer(0.1 * rng.standard_normal(20 * fs), fs)
        ref = AudioBuffer(0.1 * rng.standard_normal(20 * fs), fs)
        start = time.perf_counter()
        sbw_cancel(mix, ref)
        elapsed = time.perf_counter() - start
        assert elapsed / 20.0 < 0.5
