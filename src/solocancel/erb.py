"""ERB-rate scale and the partition of FFT bins into auditory subbands."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import _check_counts, _check_reals


def erbs(f_khz):
    """ERB-rate value of a frequency given in kHz: 21.4 * log10(1 + 4.37 f).

    Accepts scalars or arrays; frequencies must be non-negative.
    """
    f = np.asarray(f_khz, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    out = 21.4 * np.log10(1.0 + 4.37 * f)
    return float(out) if np.isscalar(f_khz) or f.ndim == 0 else out


@dataclass
class ErbPartition:
    """Contiguous auditory bands over the FFT bins 0..fft_size/2.

    ``band_edges`` holds the start bin of each band plus the total bin count,
    so band z (1-based) covers bins ``band_edges[z-1]:band_edges[z]``.
    """

    band_edges: np.ndarray

    @property
    def num_bands(self) -> int:
        return len(self.band_edges) - 1

    @property
    def num_bins(self) -> int:
        return int(self.band_edges[-1])

    def band_sizes(self) -> np.ndarray:
        return np.diff(self.band_edges)

    def band_mean(self, values: np.ndarray) -> np.ndarray:
        """Mean of ``values`` over each band's bins, along the last (bin) axis."""
        return np.add.reduceat(values, self.band_edges[:-1], axis=-1) / self.band_sizes()


def make_partition(fft_size: int, sample_rate: int, num_bands: int = 39) -> ErbPartition:
    """Partition the half-spectrum bin axis into ERB-rate-uniform bands.

    The bands span 0 Hz to the cutoff: 16 kHz, or Nyquist for sample rates
    below 32 kHz. A bin with center frequency f (<= cutoff) lands in band
    ``min(Z, floor(Z * erbs(f) / erbs(cutoff)) + 1)``; bins above the cutoff
    join the top band so spectral processing still reaches them. Bands that
    come out empty (tiny FFT sizes) are merged downward and ``num_bands``
    reports the realized count.
    """
    _check_counts(fft_size=fft_size, num_bands=num_bands)
    if fft_size < 2 or fft_size % 2 != 0:
        raise ValueError("fft_size must be even and >= 2")
    _check_reals(0, True, sample_rate=sample_rate)
    cutoff = min(16000.0, sample_rate / 2.0)

    f_khz = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size) / 1000.0
    raw = np.minimum(
        num_bands, np.floor(num_bands * erbs(f_khz) / erbs(cutoff / 1000.0)).astype(int) + 1
    )
    raw[f_khz * 1000.0 > cutoff] = num_bands

    # Each realized band starts at its label's first bin; the top edge is the bin count.
    return ErbPartition(np.searchsorted(raw, np.append(np.unique(raw), num_bands + 1)))
