import warnings

import numpy as np
import pytest

from solocancel import erbs, make_partition


def band_of_bin(part):
    """Each bin's band (1-based), read from the partition's edges."""
    return np.repeat(np.arange(1, part.num_bands + 1), part.band_sizes())


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
        part = make_partition(4096, 44100, 39)
        assert part.num_bands == 39
        sizes = part.band_sizes()
        assert np.all(sizes >= 1)
        assert sizes[0] < sizes[-1]  # low bands narrow, high bands wide

    def test_single_band(self):
        part = make_partition(8, 44100, 1)
        assert part.num_bands == 1
        assert np.array_equal(part.band_edges, [0, 5])
        assert part.band_sizes()[0] == 5  # all bins of an 8-point FFT

    def test_brute_force_assignment(self):
        part = make_partition(4096, 44100, 39)
        top = erbs(16.0)
        bands = band_of_bin(part)
        for b in range(part.num_bins):
            f_khz = b * 44100 / 4096 / 1000.0
            if f_khz * 1000.0 > 16000.0:
                expected = 39
            else:
                expected = min(39, int(np.floor(39 * erbs(f_khz) / top)) + 1)
            assert bands[b] == expected

    def test_band_index_non_decreasing(self):
        # the band index of the bins rises with the edges, none of them repeated
        part = make_partition(4096, 44100, 39)
        assert np.all(np.diff(part.band_edges) > 0)

    def test_full_coverage_and_uniqueness(self):
        part = make_partition(4096, 44100, 39)
        # every bin in exactly one band; edges partition the whole axis
        assert part.band_edges[0] == 0 and part.band_edges[-1] == 4096 // 2 + 1
        assert part.num_bins == 4096 // 2 + 1 and part.band_sizes().sum() == part.num_bins
        assert part.band_edges.shape == (part.num_bands + 1,)

    def test_bins_below_cutoff_covered(self):
        part = make_partition(4096, 44100, 39)
        freqs = np.arange(part.num_bins) * 44100 / 4096
        below = int(np.count_nonzero(freqs <= 16000.0))
        edges = part.band_edges
        covered = sum(
            min(edges[b], below) - min(edges[b - 1], below) for b in range(1, part.num_bands + 1)
        )
        assert covered == below

    def test_bins_above_cutoff_join_top_band(self):
        part = make_partition(4096, 44100, 39)
        freqs = np.arange(part.num_bins) * 44100 / 4096
        assert np.all(band_of_bin(part)[freqs > 16000.0] == part.num_bands)

    @pytest.mark.parametrize("fs,fft_size", [(22050, 1024), (16000, 512), (8000, 4096)])
    def test_cutoff_is_nyquist_below_32_khz(self, fs, fft_size):
        part = make_partition(fft_size, fs, 39)
        f_khz = np.arange(fft_size // 2 + 1) * fs / fft_size / 1000.0
        raw = np.minimum(39, np.floor(39 * erbs(f_khz) / erbs(fs / 2000.0)).astype(int) + 1)
        # realized bands are numbered in order, empty ones merged away
        assert np.array_equal(band_of_bin(part), np.searchsorted(np.unique(raw), raw) + 1)

    def test_empty_bands_merged_for_tiny_fft(self):
        part = make_partition(16, 44100, 39)
        # 9 bins cannot fill 39 bands; realized count shrinks, bands stay valid
        assert part.num_bands <= 9
        assert np.all(part.band_sizes() >= 1)
        assert part.band_sizes().sum() == 9

    def test_bad_band_count_rejected(self):
        with pytest.raises(ValueError):
            make_partition(4096, 44100, 0)

    @pytest.mark.parametrize("bands", [np.nan, np.inf, 2.5, 39.0, True])
    def test_non_integer_band_count_rejected(self, bands):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic on it
            with pytest.raises(ValueError, match=rf"num_bands must be an integer >= 1, got {bands!r}"):
                make_partition(4096, 44100, bands)

    def test_numpy_integer_band_count(self):
        assert make_partition(4096, 44100, np.int64(16)).num_bands == 16

    @pytest.mark.parametrize("fs", [0, -8000, np.nan, np.inf])
    def test_bad_sample_rate_rejected(self, fs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic on it
            with pytest.raises(ValueError, match=rf"sample_rate must be finite and > 0, got {fs}"):
                make_partition(4096, fs)


@pytest.mark.parametrize("fft_size", [1023, 0])
def test_odd_or_empty_fft_size_rejected(fft_size):
    with pytest.raises(ValueError, match="fft_size"):
        make_partition(fft_size, 44100)
