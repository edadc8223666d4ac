"""ERB-rate scale and the partition of FFT bins into auditory subbands."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Assignment of FFT bins (0..fft_size/2) to contiguous auditory bands.

    Bands are indexed 1..num_bands in ``band_of_bin``; ``band_edges`` holds
    the start bin of each band plus the total bin count, so band z covers
    bins ``band_edges[z-1]:band_edges[z]``. Bins whose center frequency lies
    above ``cutoff`` belong to the top band.
    """

    num_bands: int
    band_of_bin: np.ndarray
    band_edges: np.ndarray
    sample_rate: int
    cutoff: float
    fft_size: int

    @property
    def num_bins(self) -> int:
        return self.band_of_bin.shape[0]

    def band_slice(self, band: int) -> slice:
        """Bin range of band ``band`` (1-based)."""
        if not 1 <= band <= self.num_bands:
            raise ValueError(f"band index {band} out of range 1..{self.num_bands}")
        return slice(int(self.band_edges[band - 1]), int(self.band_edges[band]))

    def band_sizes(self) -> np.ndarray:
        return np.diff(self.band_edges)

    def band_mean(self, values: np.ndarray) -> np.ndarray:
        """Mean of ``values`` over each band's bins, along the last (bin) axis."""
        return np.add.reduceat(values, self.band_edges[:-1], axis=-1) / self.band_sizes()


def make_partition(
    fft_size: int, sample_rate: int, cutoff: float | None, num_bands: int
) -> ErbPartition:
    """Partition the half-spectrum bin axis into ERB-rate-uniform bands.

    ``cutoff=None`` means 16 kHz, or Nyquist for sample rates below 32 kHz.

    A bin with center frequency f (<= cutoff) lands in band
    ``min(Z, floor(Z * erbs(f) / erbs(cutoff)) + 1)``; bins above the cutoff
    join the top band so spectral processing still reaches them. Bands that
    come out empty (tiny FFT sizes) are merged downward and ``num_bands``
    reports the realized count.
    """
    if fft_size < 2 or fft_size % 2 != 0:
        raise ValueError("fft_size must be even and >= 2")
    if num_bands < 1:
        raise ValueError("num_bands must be >= 1")
    nyquist = sample_rate / 2.0
    if cutoff is None:
        cutoff = min(16000.0, nyquist)
    if not 0.0 < cutoff <= nyquist:
        raise ValueError(f"cutoff must lie in (0, {nyquist}], got {cutoff}")

    n_bins = fft_size // 2 + 1
    f_khz = np.arange(n_bins) * (sample_rate / fft_size) / 1000.0
    scale_top = erbs(cutoff / 1000.0)

    raw = np.minimum(
        num_bands, np.floor(num_bands * erbs(f_khz) / scale_top).astype(int) + 1
    )
    raw[f_khz * 1000.0 > cutoff] = num_bands

    # Merge empty bands downward by compressing the realized labels.
    realized = np.unique(raw)
    band_of_bin = np.searchsorted(realized, raw) + 1
    z = realized.shape[0]

    edges = np.zeros(z + 1, dtype=int)
    edges[z] = n_bins
    for band in range(2, z + 1):
        edges[band - 1] = int(np.searchsorted(band_of_bin, band))
    return ErbPartition(z, band_of_bin, edges, sample_rate, float(cutoff), fft_size)
