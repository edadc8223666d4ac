"""Two-microphone cancellation with maximal-ratio combining.

A pair of microphones 2.14 cm apart (half the wavelength at 8 kHz) sees the
solo from 21.3 degrees, so channel 2 lags channel 1 by about one sample.
Each channel is cancelled independently; the inter-channel delay is then read
off the phase ratio of the cancelled spectra, in the bins where the solo
dominates, and channel 2 is counter-rotated and averaged in.
"""
import numpy as np

import solocancel as sc
from solocancel.sbw import cancel_frames

fs = 44100
layout = sc.SidoLayout(spacing=0.0214, solo_angle_deg=21.3, accomp_angle_deg=90.0)
print(f"element spacing {layout.spacing * 100:.2f} cm "
      f"(half-wavelength limit {sc.half_wavelength_spacing(8000.0) * 100:.2f} cm)")
print(f"expected solo delay: {layout.solo_delay_samples(fs):.3f} samples")

scene = sc.synth_sido(
    sc.SceneConfig(
        solo=sc.noise_plus_tones(8.0, fs, seed=4),
        accompaniment_reference=sc.broadband_accompaniment(8.0, fs, seed=4),
        mic_ir=sc.make_mic_ir(13.7, 606, seed=4),
        channel_delay=32,
        level_diff_db=6.02,
        sido=layout,
    )
)


def median_delay(frames1, frames2):
    """Median of the per-frame delay estimates that find bins."""
    estimates = []
    for t in range(1, frames1.shape[0] - 1):
        try:
            estimates.append(sc.estimate_delay(frames1[t], frames2[t], geometry).kappa)
        except sc.NoSignalError:
            pass
    return np.median(estimates)


# Delay estimation frame by frame: on the raw channels, then as sbw-simo tracks
# it, on the bins of cancelled channel 1 that keep at least 90 % of the mixture.
cfg = sc.SbwConfig()
geometry = layout.geometry(fs)
partition = cfg.partition_for(fs)
window = sc.make_window(cfg.fft_size, cfg.window_shape)
mix1, mix2, ref = (sc.stft(x, window, cfg.hop).frames
                   for x in (scene.mixture, scene.mixture2, scene.reference))
est1 = cancel_frames(mix1, ref, partition, cfg)
est2 = cancel_frames(mix2, ref, partition, cfg)
solo1 = np.where(np.abs(est1) < 0.9 * np.abs(mix1), 0.0, est1)
print(f"median raw-channel delay estimate:   {median_delay(mix1, mix2):.3f} samples "
      f"(biased by the shared accompaniment)")
print(f"median delay on solo-dominant bins:  {median_delay(solo1, est2):.3f} samples")

single = sc.sbw_cancel(scene.mixture, scene.reference)
combined = sc.sbw_simo_cancel(
    scene.mixture, scene.mixture2, scene.reference, None, geometry
)
print(f"single channel SNRF: {sc.snrf(single, scene.reference_solo):7.2f} dB")
print(f"MRC combined  SNRF: {sc.snrf(combined, scene.reference_solo):7.2f} dB")
