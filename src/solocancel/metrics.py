"""Objective quality metrics: block RMSD, ERB-weighted segmental SNR, RTF."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, require_matched
from .erb import ErbPartition, make_partition
from .errors import NoSignalError
from .stft import Window, _default_window, stft

RMSD_FLOOR_DB = -120.0
SNRF_CLAMP_DB = 100.0


def _default_partition(fft_size: int, sample_rate: int) -> ErbPartition:
    """39 bands up to 16 kHz, or up to Nyquist for lower sample rates."""
    return make_partition(fft_size, sample_rate, None, 39)


def rmsd(
    estimate: AudioBuffer,
    ref_solo: AudioBuffer,
    block_size: int = 1024,
    return_blocks: bool = False,
):
    """Block-averaged RMS deviation in dB re full scale.

    The deviation RMS is taken per non-overlapping block (1024 samples is
    about 23 ms at 44.1 kHz), averaged across blocks, and converted to dB
    with full scale 1.0; a floor of -120 dB absorbs the perfect-estimate
    case. An incomplete tail block is dropped.
    """
    require_matched(estimate, ref_solo)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    num_blocks = len(estimate) // block_size
    if num_blocks == 0:
        raise ValueError("signals shorter than one block")
    diff = (estimate.samples - ref_solo.samples)[: num_blocks * block_size]
    block_rms = np.sqrt(np.mean(diff.reshape(num_blocks, block_size) ** 2, axis=1))
    mean_rms = float(np.mean(block_rms))
    floor_lin = 10.0 ** (RMSD_FLOOR_DB / 20.0)
    value = RMSD_FLOOR_DB if mean_rms <= floor_lin else 20.0 * np.log10(mean_rms)
    if return_blocks:
        return float(value), block_rms
    return float(value)


def snrf(
    estimate: AudioBuffer,
    ref_solo: AudioBuffer,
    partition: ErbPartition | None = None,
    fft_size: int = 4096,
    hop: int = 2048,
    window: Window | None = None,
    return_segments: bool = False,
):
    """Frequency-weighted segmental SNR over auditory bands, in dB.

    Per STFT segment and band: signal power is the band mean of the reference
    magnitude squared, noise power the band mean of the squared magnitude
    difference. Each cell's ratio is clamped to +-100 dB, cells with zero
    signal power are skipped, and the kept cells are averaged.
    """
    require_matched(estimate, ref_solo)
    if window is None:
        window = _default_window(fft_size)
    if partition is None:
        partition = _default_partition(fft_size, estimate.sample_rate)
    if partition.fft_size != fft_size:
        raise ValueError("partition fft_size inconsistent with fft_size")

    mag_est = np.abs(stft(estimate, window, hop).frames)
    mag_ref = np.abs(stft(ref_solo, window, hop).frames)

    psi_signal = partition.band_mean(mag_ref**2)
    psi_noise = partition.band_mean((mag_est - mag_ref) ** 2)

    keep = psi_signal > 0.0
    if not np.any(keep):
        raise NoSignalError("reference is silent in every segment-band cell")
    ratio_db = np.full(psi_signal.shape, SNRF_CLAMP_DB)
    measurable = keep & (psi_noise > 0.0)
    ratio_db[measurable] = 10.0 * np.log10(
        psi_signal[measurable] / psi_noise[measurable]
    )
    np.clip(ratio_db, -SNRF_CLAMP_DB, SNRF_CLAMP_DB, out=ratio_db)

    value = float(np.mean(ratio_db[keep]))
    if return_segments:
        seg_means = np.array(
            [np.mean(ratio_db[t][keep[t]]) if np.any(keep[t]) else np.nan
             for t in range(ratio_db.shape[0])]
        )
        return value, seg_means
    return value


def rtf(elapsed: float, duration: float) -> float:
    """Real-time factor: processing time divided by signal duration."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if elapsed < 0:
        raise ValueError("elapsed must be >= 0")
    return elapsed / duration


@dataclass
class MetricsReport:
    """One evaluation record, serializable as a CSV row or a text block."""

    rmsd_db: float
    snrf_db: float
    rtf: float | None = None
    per_block: np.ndarray | None = field(default=None, repr=False)
    per_segment: np.ndarray | None = field(default=None, repr=False)
    params: dict = field(default_factory=dict)

    CSV_COLUMNS = ("rmsd_db", "snrf_db", "rtf", "block_size", "segments", "num_bands")

    def csv_row(self) -> list[str]:
        return [
            f"{self.rmsd_db:.6f}",
            f"{self.snrf_db:.6f}",
            "" if self.rtf is None else f"{self.rtf:.6f}",
            str(self.params.get("block_size", "")),
            str(self.params.get("segments", "")),
            str(self.params.get("num_bands", "")),
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.CSV_COLUMNS) + "\n")
        buf.write(",".join(self.csv_row()) + "\n")
        return buf.getvalue()

    def summary(self) -> str:
        lines = [
            f"RMSD : {self.rmsd_db:8.2f} dB",
            f"SNRF : {self.snrf_db:8.2f} dB",
        ]
        if self.rtf is not None:
            lines.append(f"RTF  : {self.rtf:8.3f}")
        if self.params:
            lines.append(
                "(block_size={block_size}, segments={segments}, bands={num_bands})".format(
                    block_size=self.params.get("block_size", "?"),
                    segments=self.params.get("segments", "?"),
                    num_bands=self.params.get("num_bands", "?"),
                )
            )
        return "\n".join(lines)


def measure(
    estimate: AudioBuffer,
    ref_solo: AudioBuffer,
    block_size: int = 1024,
    partition: ErbPartition | None = None,
    fft_size: int = 4096,
    hop: int = 2048,
    window: Window | None = None,
    elapsed: float | None = None,
) -> MetricsReport:
    """Evaluate an estimate against the recorded-solo ground truth."""
    rmsd_db, per_block = rmsd(estimate, ref_solo, block_size, return_blocks=True)
    if partition is None:
        partition = _default_partition(fft_size, estimate.sample_rate)
    snrf_db, per_segment = snrf(
        estimate, ref_solo, partition, fft_size, hop, window, return_segments=True
    )
    return MetricsReport(
        rmsd_db=rmsd_db,
        snrf_db=snrf_db,
        rtf=None if elapsed is None else rtf(elapsed, estimate.duration),
        per_block=per_block,
        per_segment=per_segment,
        params={
            "block_size": block_size,
            "segments": len(per_segment),
            "num_bands": partition.num_bands,
        },
    )
