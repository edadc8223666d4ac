import numpy as np
import pytest

from solocancel import AudioBuffer, SbwConfig, make_partition, sbw_cancel, subband_wiener_gains
from solocancel.sbw import cancel_frames


def random_frame(rng, bins):
    return rng.standard_normal(bins) + 1j * rng.standard_normal(bins)


class TestSubbandGains:
    def test_identical_frames_give_unit_gain(self):
        rng = np.random.default_rng(0)
        part = make_partition(64, 44100, 16000.0, 4)
        s0 = random_frame(rng, part.num_bins)
        gains = subband_wiener_gains(s0, s0.copy(), part)
        assert np.allclose(gains, 1.0, atol=1e-12)

    def test_scaled_mixture_scales_gain(self):
        rng = np.random.default_rng(1)
        part = make_partition(64, 44100, 16000.0, 4)
        s0 = random_frame(rng, part.num_bins)
        gains = subband_wiener_gains(s0, 2.0 * s0, part)
        assert np.allclose(gains, 2.0, atol=1e-12)

    def test_brute_force_band_sums(self):
        rng = np.random.default_rng(2)
        part = make_partition(16, 44100, 16000.0, 4)
        s0 = random_frame(rng, part.num_bins)
        x = random_frame(rng, part.num_bins)
        gains = subband_wiener_gains(s0, x, part)
        for band in range(1, part.num_bands + 1):
            bins = range(part.band_slice(band).start, part.band_slice(band).stop)
            auto = sum(abs(s0[w]) ** 2 for w in bins) / len(bins)
            cross = sum(abs(np.conj(s0[w]) * x[w]) for w in bins) / len(bins)
            assert gains[band - 1] == pytest.approx(cross / auto, abs=1e-12)

    def test_zero_reference_band_gets_zero_gain(self):
        rng = np.random.default_rng(3)
        part = make_partition(64, 44100, 16000.0, 4)
        s0 = random_frame(rng, part.num_bins)
        s0[part.band_slice(2)] = 0.0
        gains = subband_wiener_gains(s0, random_frame(rng, part.num_bins), part)
        assert gains[1] == 0.0
        assert np.all(gains >= 0.0) and np.all(np.isfinite(gains))

    def test_all_zero_reference_frame(self):
        part = make_partition(64, 44100, 16000.0, 4)
        zero = np.zeros(part.num_bins, dtype=complex)
        gains = subband_wiener_gains(zero, random_frame(np.random.default_rng(4), 33), part)
        assert np.all(gains == 0.0)

    def test_gain_homogeneity_leaves_match_unchanged(self):
        rng = np.random.default_rng(5)
        part = make_partition(64, 44100, 16000.0, 4)
        s0 = random_frame(rng, part.num_bins)
        x = random_frame(rng, part.num_bins)
        c = 3.7
        g1 = subband_wiener_gains(s0, x, part)
        g2 = subband_wiener_gains(c * s0, x, part)
        assert np.allclose(g2, g1 / c, rtol=1e-12)
        y1 = g1[part.band_of_bin - 1] * s0
        y2 = g2[part.band_of_bin - 1] * (c * s0)
        assert np.allclose(y1, y2, rtol=1e-12)

    def test_complex_cross_covariance_variant(self):
        rng = np.random.default_rng(6)
        part = make_partition(16, 44100, 16000.0, 4)
        s0 = random_frame(rng, part.num_bins)
        x = random_frame(rng, part.num_bins)
        gains = subband_wiener_gains(s0, x, part, cross_cov="complex")
        for band in range(1, part.num_bands + 1):
            sl = part.band_slice(band)
            cross = abs(np.sum(np.conj(s0[sl]) * x[sl])) / (sl.stop - sl.start)
            auto = np.mean(np.abs(s0[sl]) ** 2)
            assert gains[band - 1] == pytest.approx(cross / auto, rel=1e-12)


class TestSbwCancel:
    def test_zero_reference_interior_passthrough(self):
        rng = np.random.default_rng(7)
        fs = 44100
        mix = AudioBuffer(rng.standard_normal(fs), fs)
        cfg = SbwConfig(fft_size=1024, hop=512, num_bands=16, cutoff=16000.0)
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
        cfg = SbwConfig(fft_size=512, hop=256, num_bands=8, cutoff=8000.0)
        out = sbw_cancel(mix, ref, cfg)
        assert len(out) == fs and out.sample_rate == fs

    def test_output_spectrum_bounded_by_mixture(self):
        rng = np.random.default_rng(10)
        part = make_partition(256, 44100, 16000.0, 8)
        cfg = SbwConfig(fft_size=256, hop=128, num_bands=8)
        mix = np.stack([random_frame(rng, part.num_bins) for _ in range(6)])
        ref = np.stack([random_frame(rng, part.num_bins) for _ in range(6)])
        est = cancel_frames(mix, ref, part, cfg)
        assert np.all(np.abs(est) <= np.abs(mix) + 1e-12)

    def test_zero_exponent_degenerates_to_raw_subtraction(self):
        rng = np.random.default_rng(11)
        part = make_partition(256, 44100, 16000.0, 8)
        cfg = SbwConfig(fft_size=256, hop=128, num_bands=8, wiener_exponent=0.0)
        mix = np.stack([random_frame(rng, part.num_bins)])
        ref = np.stack([random_frame(rng, part.num_bins)])
        from solocancel import spectral_subtract

        est = cancel_frames(mix, ref, part, cfg)
        assert np.array_equal(est, spectral_subtract(mix, ref, cfg.p))

    @pytest.mark.parametrize("fs", [22050, 16000])
    def test_low_sample_rates_run(self, fs):
        # the default cutoff falls to Nyquist below 32 kHz
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
        with pytest.raises(ValueError):
            sbw_cancel(buf, buf, SbwConfig(cutoff=30000.0))
        with pytest.raises(ValueError):
            sbw_cancel(buf, buf, SbwConfig(cross_cov="median"))

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
