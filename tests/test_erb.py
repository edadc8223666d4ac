import numpy as np
import pytest

from solocancel import erbs, make_partition


class TestErbs:
    def test_zero(self):
        assert erbs(0.0) == 0.0

    def test_one_khz(self):
        assert erbs(1.0) == pytest.approx(21.4 * np.log10(5.37), abs=1e-12)
        assert erbs(1.0) == pytest.approx(15.6214, abs=1e-3)

    def test_sixteen_khz(self):
        # consistent with 39 bands at a 16-kHz cutoff
        assert erbs(16.0) == pytest.approx(39.61, abs=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erbs(-0.1)

    def test_strictly_increasing(self):
        f = np.linspace(0.0, 22.05, 2000)
        assert np.all(np.diff(erbs(f)) > 0)


class TestMakePartition:
    def test_reference_configuration(self):
        part = make_partition(4096, 44100, 16000.0, 39)
        assert part.num_bands == 39
        sizes = part.band_sizes()
        assert np.all(sizes >= 1)
        assert sizes[0] < sizes[-1]  # low bands narrow, high bands wide

    def test_single_band(self):
        part = make_partition(8, 44100, 22050.0, 1)
        assert part.num_bands == 1
        assert np.all(part.band_of_bin == 1)
        assert part.band_sizes()[0] == 5  # all bins of an 8-point FFT

    def test_brute_force_assignment(self):
        part = make_partition(4096, 44100, 16000.0, 39)
        top = erbs(16.0)
        for b in range(part.num_bins):
            f_khz = b * 44100 / 4096 / 1000.0
            if f_khz * 1000.0 > 16000.0:
                expected = 39
            else:
                expected = min(39, int(np.floor(39 * erbs(f_khz) / top)) + 1)
            assert part.band_of_bin[b] == expected

    def test_band_index_non_decreasing(self):
        part = make_partition(4096, 44100, 16000.0, 39)
        assert np.all(np.diff(part.band_of_bin) >= 0)

    def test_full_coverage_and_uniqueness(self):
        part = make_partition(4096, 44100, 16000.0, 39)
        # every bin in exactly one band; edges partition the whole axis
        assert part.band_edges[0] == 0 and part.band_edges[-1] == part.num_bins
        assert part.band_sizes().sum() == part.num_bins
        for band in range(1, part.num_bands + 1):
            start, stop = part.band_edges[band - 1 : band + 1]
            assert np.all(part.band_of_bin[start:stop] == band)

    def test_bins_below_cutoff_covered(self):
        part = make_partition(4096, 44100, 16000.0, 39)
        freqs = np.arange(part.num_bins) * 44100 / 4096
        below = int(np.count_nonzero(freqs <= 16000.0))
        edges = part.band_edges
        covered = sum(
            min(edges[b], below) - min(edges[b - 1], below) for b in range(1, part.num_bands + 1)
        )
        assert covered == below

    def test_bins_above_cutoff_join_top_band(self):
        part = make_partition(4096, 44100, 16000.0, 39)
        freqs = np.arange(part.num_bins) * 44100 / 4096
        assert np.all(part.band_of_bin[freqs > 16000.0] == part.num_bands)

    def test_empty_bands_merged_for_tiny_fft(self):
        part = make_partition(16, 44100, 16000.0, 39)
        # 9 bins cannot fill 39 bands; realized count shrinks, bands stay valid
        assert part.num_bands <= 9
        assert np.all(part.band_sizes() >= 1)
        assert part.band_sizes().sum() == part.num_bins

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            make_partition(4096, 44100, 23000.0, 39)

    def test_bad_band_count_rejected(self):
        with pytest.raises(ValueError):
            make_partition(4096, 44100, 16000.0, 0)


@pytest.mark.parametrize("fft_size", [1023, 0])
def test_odd_or_empty_fft_size_rejected(fft_size):
    with pytest.raises(ValueError, match="fft_size"):
        make_partition(fft_size, 44100, None, 39)
