"""Two-microphone cancellation with maximal-ratio combining.

A pair of microphones 2.14 cm apart (half the wavelength at 8 kHz) sees the
solo from 21.3 degrees, so channel 2 lags channel 1 by about one sample.
Each channel is cancelled independently; the inter-channel delay is then read
off the phase ratio of the cancelled spectra and channel 2 is counter-rotated
and averaged in.
"""
import numpy as np

import solocancel as sc

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

# Delay estimation on the raw channels, frame by frame.
window = sc.make_window("kbd", 4096, 4.0)
geometry = layout.geometry(fs)
frames1 = sc.stft(scene.mixture, window, 2048).frames
frames2 = sc.stft(scene.mixture2, window, 2048).frames
estimates = []
for t in range(1, frames1.shape[0] - 1):
    try:
        estimates.append(sc.estimate_delay(frames1[t], frames2[t], geometry).kappa)
    except sc.NoSignalError:
        pass
print(f"median raw-channel delay estimate: {np.median(estimates):.3f} samples "
      f"(biased by the shared accompaniment)")

single = sc.sbw_cancel(scene.mixture, scene.reference)
combined = sc.sbw_simo_cancel(
    scene.mixture, scene.mixture2, scene.reference, None, geometry
)
print(f"single channel SNRF: {sc.snrf(single, scene.reference_solo):7.2f} dB")
print(f"MRC combined  SNRF: {sc.snrf(combined, scene.reference_solo):7.2f} dB")
