"""Compare the cancellers on one scene.

Adaptive filtering, block Wiener filtering with time-domain or spectral
subtraction, and ERB-band Wiener filtering, each scored with the block RMSD
and the band-weighted segmental SNR on a 20-second scene. Block Wiener runs
at a reduced scale so the script finishes in well under a minute; the
published-preset settings (1023 taps, 16384-sample blocks, 64-sample hop)
run about 4 times slower than real time.
"""
import time

import solocancel as sc

fs = 44100
scene = sc.synth_siso(
    sc.SceneConfig(
        solo=sc.noise_plus_tones(20.0, fs, seed=17),
        accompaniment_reference=sc.broadband_accompaniment(20.0, fs, seed=17),
        mic_ir=sc.make_mic_ir(13.7, 606, seed=17),
        channel_delay=32,
        level_diff_db=6.02,
    )
)

runs = {
    "anc (nlms)": lambda: sc.anc_cancel(
        scene.mixture, scene.reference, sc.AncConfig(taps=1023, mu=0.10)
    ),
    "anc (prewhitened)": lambda: sc.anc_cancel(
        scene.mixture, scene.reference,
        sc.AncConfig(taps=1023, mu=0.01, prewhiten=True, lp_order=15),
    ),
    "maw": lambda: sc.maw_cancel(
        scene.mixture, scene.reference,
        sc.BlockWienerConfig(511, 8192, 2048, interpolate=False),
    ),
    "maw + spectral sub": lambda: sc.maw_ss_cancel(
        scene.mixture, scene.reference,
        sc.BlockWienerConfig(511, 8192, 2048, interpolate=False),
    ),
    "sbw (erb bands)": lambda: sc.sbw_cancel(scene.mixture, scene.reference),
}

print(f"{'algorithm':<20} {'RMSD dB':>9} {'SNRF dB':>9} {'RTF':>7}")
for name, call in runs.items():
    start = time.perf_counter()
    estimate = call()
    elapsed = time.perf_counter() - start
    report = sc.measure(estimate, scene.reference_solo, elapsed=elapsed)
    print(f"{name:<20} {report.rmsd_db:>9.2f} {report.snrf_db:>9.2f} {report.rtf:>7.3f}")
