"""Windows and the short-time transform.

Builds the KBD analysis window, checks its power-complementarity, and runs a
full analysis/synthesis round trip on noise to show the reconstruction floor.
"""
import numpy as np

import solocancel as sc

fs = 44100

# The KBD window is power-complementary at 50 % overlap: w^2[i] + w^2[i+N/2]
# is constant, which makes weighted overlap-add exact on the interior.
window = sc.make_window(4096, 4.0)
half = 2048
pb = window[:half] ** 2 + window[half:] ** 2
print(f"KBD power-complementarity spread: {np.ptp(pb):.3e}")

rng = np.random.default_rng(0)
x = sc.AudioBuffer(rng.standard_normal(3 * fs), fs)
frames = sc.stft(x, window, hop=2048)
print(f"{frames.num_frames} frames of {frames.num_bins} bins each")

back = sc.istft(frames)
inner = slice(4096, len(x) - 4096)
err = np.linalg.norm(back.samples[inner] - x.samples[inner]) / np.linalg.norm(
    x.samples[inner]
)
print(f"round-trip interior error: {20 * np.log10(err):.1f} dB")

# A 1 kHz tone lands in bin round(1000 * 4096 / 44100) = 93.
tone = sc.AudioBuffer(np.sin(2 * np.pi * 1000 * np.arange(fs) / fs), fs)
tone_frames = sc.stft(tone, window, 2048)
print(f"1 kHz tone peaks in bin {np.argmax(np.abs(tone_frames.frames[5]))}")
