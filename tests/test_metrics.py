import numpy as np
import pytest

from solocancel import (
    AudioBuffer,
    NoSignalError,
    make_partition,
    make_window,
    measure,
    rmsd,
    rtf,
    snrf,
    stft,
)


def noise_pair(n=2 * 44100, seed=0):
    rng = np.random.default_rng(seed)
    fs = 44100
    est = AudioBuffer(0.1 * rng.standard_normal(n), fs)
    ref = AudioBuffer(0.1 * rng.standard_normal(n), fs)
    return est, ref


class TestRmsd:
    def test_perfect_estimate_hits_floor(self):
        _, ref = noise_pair()
        assert rmsd(ref.copy(), ref) == -120.0

    def test_constant_offset(self):
        _, ref = noise_pair()
        est = AudioBuffer(ref.samples + 0.001, ref.sample_rate)
        assert rmsd(est, ref) == pytest.approx(-60.0, abs=1e-9)

    def test_full_scale_sine_against_silence(self):
        fs = 44100
        # frequency chosen for an integer number of periods per 1024 block
        f = 43.06640625 * 16
        t = np.arange(fs) / fs
        ref = AudioBuffer(np.sin(2 * np.pi * f * t), fs)
        est = AudioBuffer(np.zeros(fs), fs)
        assert rmsd(est, ref) == pytest.approx(20 * np.log10(1 / np.sqrt(2)), abs=0.01)

    def test_symmetry(self):
        est, ref = noise_pair()
        assert rmsd(est, ref) == rmsd(ref, est)

    def test_translation_invariance(self):
        est, ref = noise_pair()
        shifted_est = AudioBuffer(est.samples + 0.3, est.sample_rate)
        shifted_ref = AudioBuffer(ref.samples + 0.3, ref.sample_rate)
        assert rmsd(shifted_est, shifted_ref) == pytest.approx(rmsd(est, ref), abs=1e-12)

    def test_length_mismatch_rejected(self):
        est, ref = noise_pair()
        short = AudioBuffer(ref.samples[:-1], ref.sample_rate)
        with pytest.raises(ValueError):
            rmsd(est, short)

    def test_tail_block_dropped(self):
        fs = 44100
        ref = AudioBuffer(np.zeros(1024 + 100), fs)
        est = AudioBuffer(np.zeros(1024 + 100), fs)
        est.samples[1024:] = 1.0  # only in the dropped tail
        assert rmsd(est, ref) == -120.0


class TestSnrf:
    def test_hop_defaults_to_half_the_frame(self):
        est, ref = noise_pair(seed=9)
        assert snrf(est, ref, fft_size=1024) == snrf(est, ref, fft_size=1024, hop=512)

    def test_perfect_estimate_clamps_high(self):
        _, ref = noise_pair()
        assert snrf(ref.copy(), ref, fft_size=512, hop=256) == 100.0

    def test_zero_estimate_is_zero_db(self):
        _, ref = noise_pair()
        est = AudioBuffer(np.zeros(len(ref)), ref.sample_rate)
        assert snrf(est, ref, fft_size=512, hop=256) == 0.0

    @pytest.mark.parametrize("num_bands", [1, 4, 16, 39])
    def test_brute_force_oracle(self, num_bands):
        est, ref = noise_pair(seed=3)
        part = make_partition(512, 44100, num_bands)
        win = make_window(512, 4.0)
        got = snrf(est, ref, num_bands, fft_size=512, hop=256)

        mag_est = np.abs(stft(est, win, 256).frames)
        mag_ref = np.abs(stft(ref, win, 256).frames)
        cells = []
        for t in range(mag_est.shape[0]):
            for band in range(1, part.num_bands + 1):
                sl = slice(*part.band_edges[band - 1 : band + 1])
                size = sl.stop - sl.start
                psi_s = sum(mag_ref[t, w] ** 2 for w in range(sl.start, sl.stop)) / size
                psi_n = sum(
                    (mag_est[t, w] - mag_ref[t, w]) ** 2 for w in range(sl.start, sl.stop)
                ) / size
                if psi_s <= 0.0:
                    continue
                if psi_n <= 0.0:
                    cells.append(100.0)
                else:
                    cells.append(np.clip(10 * np.log10(psi_s / psi_n), -100.0, 100.0))
        assert got == pytest.approx(np.mean(cells), abs=1e-9)

    def test_monotone_in_added_noise(self):
        rng = np.random.default_rng(4)
        est, ref = noise_pair(seed=5)
        values = []
        for level in (0.0, 0.01, 0.05, 0.2, 1.0):
            noisy = AudioBuffer(
                ref.samples + level * rng.standard_normal(len(ref)), ref.sample_rate
            )
            values.append(snrf(noisy, ref, fft_size=512, hop=256))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_perfect_at_least_as_good_as_corrupted(self):
        est, ref = noise_pair(seed=6)
        assert snrf(ref.copy(), ref, fft_size=512, hop=256) >= snrf(
            est, ref, fft_size=512, hop=256
        )

    def test_silent_reference_raises(self):
        fs = 44100
        zero = AudioBuffer(np.zeros(fs), fs)
        with pytest.raises(NoSignalError):
            snrf(zero.copy(), zero, fft_size=512, hop=256)


class TestRtf:
    def test_values(self):
        assert rtf(10.0, 20.0) == 0.5
        assert rtf(20.0, 20.0) == 1.0

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            rtf(1.0, 0.0)

    def test_negative_elapsed(self):
        with pytest.raises(ValueError):
            rtf(-1.0, 10.0)

    @pytest.mark.parametrize("elapsed", [float("nan"), float("inf")])
    def test_non_finite_elapsed(self, elapsed):
        with pytest.raises(ValueError):
            rtf(elapsed, 1.0)

    def test_nan_duration(self):
        with pytest.raises(ValueError):
            rtf(1.0, float("nan"))


class TestMeasure:
    def test_report_fields(self):
        est, ref = noise_pair(seed=7)
        rep = measure(est, ref, fft_size=512, hop=256, elapsed=1.0)
        assert rep.rtf == pytest.approx(1.0 / est.duration)
        assert rep.params == {
            "block_size": 1024,
            "segments": stft(est, make_window(512), 256).num_frames,
            "num_bands": make_partition(512, 44100).num_bands,  # the bands it realized
        }
        assert "RMSD" in rep.summary() and "SNRF" in rep.summary()

    def test_hop_defaults_to_half_the_frame(self):
        est, ref = noise_pair(seed=9)
        default = measure(est, ref, fft_size=1024)
        half = measure(est, ref, fft_size=1024, hop=512)
        assert default == half

    def test_rtf_omitted_without_timing(self):
        est, ref = noise_pair(seed=8)
        rep = measure(est, ref, fft_size=512, hop=256)
        assert rep.rtf is None
        assert "RTF" not in rep.summary()


@pytest.mark.parametrize("measure_it,message", [
    (lambda x: rmsd(x, x, block_size=0), "block_size"),
    (lambda x: rmsd(x, x, block_size=2.5), "block_size"),
    (lambda x: rmsd(x, x, block_size=np.nan), "block_size"),
    (lambda x: measure(x, x, block_size=True), "block_size"),
    (lambda x: snrf(x, x, fft_size=1024.0), "fft_size"),
    (lambda x: rmsd(AudioBuffer(x.samples[:1000]), AudioBuffer(x.samples[:1000])), "one block"),
], ids=["block-size", "block-size-2.5", "block-size-nan", "block-size-True", "fft-size-float",
        "shorter-than-a-block"])
def test_bad_measurement_setting_rejected(measure_it, message):
    take = AudioBuffer(np.random.default_rng(4).standard_normal(8192))
    with pytest.raises(ValueError, match=message):
        measure_it(take)
