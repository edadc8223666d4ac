"""Objective quality metrics: block RMSD, ERB-weighted segmental SNR, RTF."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, _check_counts, _check_reals, require_matched
from .erb import make_partition
from .errors import NoSignalError
from .stft import _hop, _map_blocks, _num_frames, make_window

RMSD_FLOOR_DB = -120.0
SNRF_CLAMP_DB = 100.0


def rmsd(
    estimate: AudioBuffer,
    ref_solo: AudioBuffer,
    block_size: int = 1024,
) -> float:
    """Block-averaged RMS deviation in dB re full scale.

    The deviation RMS is taken per non-overlapping block (1024 samples is
    about 23 ms at 44.1 kHz), averaged across blocks, and converted to dB
    with full scale 1.0; a floor of -120 dB absorbs the perfect-estimate
    case. An incomplete tail block is dropped.
    """
    require_matched(estimate, ref_solo)
    _check_counts(block_size=block_size)
    num_blocks = len(estimate) // block_size
    if num_blocks == 0:
        raise ValueError("signals shorter than one block")
    diff = (estimate.samples - ref_solo.samples)[: num_blocks * block_size]
    block_rms = np.sqrt(np.mean(diff.reshape(num_blocks, block_size) ** 2, axis=1))
    mean_rms = float(np.mean(block_rms))
    floor_lin = 10.0 ** (RMSD_FLOOR_DB / 20.0)
    value = RMSD_FLOOR_DB if mean_rms <= floor_lin else 20.0 * np.log10(mean_rms)
    return float(value)


def snrf(
    estimate: AudioBuffer,
    ref_solo: AudioBuffer,
    num_bands: int = 39,
    fft_size: int = 4096,
    hop: int | None = None,
) -> float:
    """Frequency-weighted segmental SNR over auditory bands, in dB.

    Per STFT segment and band: signal power is the band mean of the reference
    magnitude squared, noise power the band mean of the squared magnitude
    difference. Each cell's ratio is clamped to +-100 dB, cells with zero
    signal power are skipped, and the kept cells are averaged. Segments are
    KBD(4)-windowed, ``fft_size`` long, ``hop`` apart (None: half of
    ``fft_size``). The bands are ``make_partition(fft_size, rate, num_bands)``'s: up to
    16 kHz, or up to Nyquist below 32 kHz.
    """
    require_matched(estimate, ref_solo)
    partition = make_partition(fft_size, estimate.sample_rate, num_bands)
    window = make_window(fft_size)
    hop = _hop(fft_size, hop)

    def band_powers(est, ref):
        mag_est, mag_ref = np.abs(est), np.abs(ref)
        return partition.band_mean(mag_ref**2), partition.band_mean((mag_est - mag_ref) ** 2)

    blocks = list(_map_blocks(band_powers, (estimate, ref_solo), window, hop))
    psi_signal = np.concatenate([signal for signal, _ in blocks])
    psi_noise = np.concatenate([noise for _, noise in blocks])

    keep = psi_signal > 0.0
    if not np.any(keep):
        raise NoSignalError("reference is silent in every segment-band cell")
    ratio_db = np.full(psi_signal.shape, SNRF_CLAMP_DB)
    measurable = keep & (psi_noise > 0.0)
    ratio_db[measurable] = 10.0 * np.log10(
        psi_signal[measurable] / psi_noise[measurable]
    )
    np.clip(ratio_db, -SNRF_CLAMP_DB, SNRF_CLAMP_DB, out=ratio_db)

    return float(np.mean(ratio_db[keep]))


def rtf(elapsed: float, duration: float) -> float:
    """Real-time factor: processing time divided by signal duration."""
    _check_reals(0, True, duration=duration)
    _check_reals(0, elapsed=elapsed)
    return elapsed / duration


@dataclass
class MetricsReport:
    """One evaluation record, printable as a text block."""

    rmsd_db: float
    snrf_db: float
    rtf: float | None = None
    params: dict = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"RMSD : {self.rmsd_db:8.2f} dB",
            f"SNRF : {self.snrf_db:8.2f} dB",
        ]
        if self.rtf is not None:
            lines.append(f"RTF  : {self.rtf:8.3f}")
        if self.params:
            lines.append("(block_size={block_size}, segments={segments}, bands={num_bands})"
                         .format(**self.params))
        return "\n".join(lines)


def measure(
    estimate: AudioBuffer,
    ref_solo: AudioBuffer,
    block_size: int = 1024,
    num_bands: int = 39,
    fft_size: int = 4096,
    hop: int | None = None,
    elapsed: float | None = None,
) -> MetricsReport:
    """Evaluate an estimate against the recorded-solo ground truth. The SNRF is :func:`snrf`'s,
    so ``hop`` None is half of ``fft_size``; the report gives the band count realized."""
    bands = make_partition(fft_size, estimate.sample_rate, num_bands).num_bands
    return MetricsReport(
        rmsd_db=rmsd(estimate, ref_solo, block_size),
        snrf_db=snrf(estimate, ref_solo, num_bands, fft_size, hop),
        rtf=None if elapsed is None else rtf(elapsed, estimate.duration),
        params={
            "block_size": block_size,
            "segments": _num_frames(len(estimate), fft_size, _hop(fft_size, hop)),
            "num_bands": bands,
        },
    )
