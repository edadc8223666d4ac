"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The comparison scene
(criteria 6/7) is 20 s long and runs four cancellers, so this module takes a
few minutes; everything is deterministic.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import solocancel as sc
from solocancel.sbw import cancel_frames

FS = 44100
SCENE_SEED = 17

# The moving-average Wiener runs at a reduced scale here: the published
# comparison setting (1023 taps, 16384-sample blocks, 64-sample hop) costs
# about six minutes of CPU on 20 s of audio (real-time factor ~17; the
# published figure is ~475).
# Taps still exceed half the mic response; hop/block ratios stay comparable.
MAW_ACCEPT = dict(taps=511, block_size=8192, hop=2048, interpolate=False)
ANC_ACCEPT = dict(taps=1023, mu=0.10, normalized=True)


def passline(num, text):
    print(f"\n[criterion {num:2d}] PASS - {text}")


@pytest.fixture(scope="module")
def ident_scene():
    """White reference through a planted 16-tap response, silent solo."""
    rng = np.random.default_rng(100)
    h = rng.standard_normal(16)
    h /= np.linalg.norm(h)
    ref = rng.standard_normal(80_000)
    mix = np.convolve(ref, h)[: len(ref)]
    return ref, mix, h


@pytest.fixture(scope="module")
def scene20():
    solo = sc.noise_plus_tones(20.0, FS, seed=SCENE_SEED)
    accomp = sc.broadband_accompaniment(20.0, FS, seed=SCENE_SEED)
    ir = sc.make_mic_ir(13.7, 606, seed=SCENE_SEED)
    cfg = sc.SceneConfig(
        solo=solo,
        accompaniment_reference=accomp,
        mic_ir=ir,
        channel_delay=32,
        level_diff_db=6.02,
    )
    return sc.synth_siso(cfg)


@pytest.fixture(scope="module")
def comparison(scene20):
    """All four cancellers on the fixed 20-s scene, with timings."""
    results = {}

    start = time.perf_counter()
    est = sc.sbw_cancel(scene20.mixture, scene20.reference)
    results["sbw"] = (sc.snrf(est, scene20.reference_solo), time.perf_counter() - start)

    mcfg = sc.BlockWienerConfig(**MAW_ACCEPT)
    start = time.perf_counter()
    est = sc.maw_cancel(scene20.mixture, scene20.reference, mcfg)
    results["maw"] = (sc.snrf(est, scene20.reference_solo), time.perf_counter() - start)

    start = time.perf_counter()
    est = sc.maw_ss_cancel(scene20.mixture, scene20.reference, mcfg)
    results["maw_ss"] = (sc.snrf(est, scene20.reference_solo), time.perf_counter() - start)

    acfg = sc.AncConfig(**ANC_ACCEPT)
    start = time.perf_counter()
    est = sc.anc_cancel(scene20.mixture, scene20.reference, acfg)
    results["anc"] = (sc.snrf(est, scene20.reference_solo), time.perf_counter() - start)
    return results


def test_criterion_01_wiener_hopf_identification(ident_scene):
    ref, mix, h = ident_scene
    n = 16_000
    start_idx = 15
    window = sc.AudioBuffer(ref[start_idx - 15 : start_idx + n], FS)
    block = sc.AudioBuffer(mix[start_idx : start_idx + n], FS)
    start = time.perf_counter()
    w = sc.block_wiener(window, block, taps=16)
    elapsed = time.perf_counter() - start
    misalignment = np.linalg.norm(w.taps - h) / np.linalg.norm(h)
    assert misalignment < 0.05
    assert elapsed < 5.0
    passline(1, f"block Wiener identifies planted 16-tap response "
                f"(misalignment {misalignment:.2e}, {elapsed:.2f} s)")


def test_criterion_02_lms_identification(ident_scene):
    ref, mix, h = ident_scene
    state = sc.LmsState.create(16, 0.01, normalized=True)
    for k in range(50_000):
        state, _ = sc.lms_step(state, mix[k], ref[k])
    misalignment = np.linalg.norm(state.weights - h) / np.linalg.norm(h)
    assert misalignment < 0.1

    frozen = sc.LmsState.create(16, 0.0, normalized=False)
    for k in range(1_000):
        frozen, _ = sc.lms_step(frozen, mix[k], ref[k])
    assert np.array_equal(frozen.weights, np.zeros(16))
    passline(2, f"NLMS converges to the planted response "
                f"(misalignment {misalignment:.2e}); mu=0 freezes the weights")


def test_criterion_03_spectral_subtraction_identities():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    equal_mag = -np.conj(x)
    assert np.all(sc.spectral_subtract(x, equal_mag, 2.0) == 0.0)
    assert np.array_equal(sc.spectral_subtract(x, np.zeros_like(x), 2.0), x)

    worked = sc.spectral_subtract(
        np.array([5.0 * np.exp(1j * 0.3)]), np.array([3.0 + 0j]), 2.0
    )
    assert np.abs(worked[0]) == pytest.approx(4.0, abs=1e-12)

    y = 1.5 * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
    for p in (0.5, 1.0, 2.0):
        mags = np.abs(sc.spectral_subtract(x, y, p))
        assert np.all(mags >= 0.0) and np.all(mags <= np.abs(x))
    passline(3, "spectral-subtraction identities and bounds hold on 1e4 random bins")


def test_criterion_04_erb_scale():
    assert sc.erbs(0.0) == 0.0
    assert sc.erbs(16.0) == pytest.approx(39.61, abs=0.01)
    part = sc.make_partition(4096, 44100, 16000.0, 39)
    assert part.num_bands == 39
    passline(4, f"ERB scale anchors (erbs(16 kHz) = {sc.erbs(16.0):.3f}) and "
                f"realized band count 39")


def test_criterion_05_sbw_exact_limit():
    rng = np.random.default_rng(5)
    accomp = sc.AudioBuffer(0.2 * rng.standard_normal(5 * FS), FS)
    cfg = sc.SceneConfig(
        solo=sc.AudioBuffer(np.zeros(5 * FS), FS),
        accompaniment_reference=accomp,
        mic_ir=sc.FirFilter(np.ones(1)),
        channel_delay=0,
        level_diff_db=None,
        accompaniment_gain=1.0,
    )
    scene = sc.synth_siso(cfg)
    est = sc.sbw_cancel(scene.mixture, scene.reference)
    inner = slice(4096, 5 * FS - 4096)
    residual = np.sqrt(np.mean(est.samples[inner] ** 2))
    level_db = 20 * np.log10(residual / scene.mixture.rms() + 1e-300)
    assert level_db <= -40.0
    passline(5, f"pure-accompaniment scene cancelled to {level_db:.1f} dB re mixture")


def test_criterion_06_ordering(comparison, scene20):
    sbw = comparison["sbw"][0]
    maw = comparison["maw"][0]
    maw_ss = comparison["maw_ss"][0]
    anc = comparison["anc"][0]
    assert sbw > maw_ss + 1.0, f"SBW {sbw:.2f} vs MAW-SS {maw_ss:.2f}"
    assert maw_ss > maw + 1.0, f"MAW-SS {maw_ss:.2f} vs MAW {maw:.2f}"
    assert sbw > anc + 1.0, f"SBW {sbw:.2f} vs ANC {anc:.2f}"

    layout = sc.SidoLayout(spacing=0.0214, solo_angle_deg=21.3, accomp_angle_deg=90.0)
    cfg = sc.SceneConfig(
        solo=sc.noise_plus_tones(20.0, FS, seed=SCENE_SEED),
        accompaniment_reference=sc.broadband_accompaniment(20.0, FS, seed=SCENE_SEED),
        mic_ir=sc.make_mic_ir(13.7, 606, seed=SCENE_SEED),
        channel_delay=32,
        level_diff_db=6.02,
        sido=layout,
    )
    sido_scene = sc.synth_sido(cfg)
    geometry = sc.ArrayGeometry(spacing=0.0214, f_max=8000.0, sample_rate=FS)
    single = sc.snrf(sc.sbw_cancel(sido_scene.mixture, sido_scene.reference),
                     sido_scene.reference_solo)
    combined = sc.snrf(
        sc.sbw_simo_cancel(
            sido_scene.mixture, sido_scene.mixture2, sido_scene.reference,
            None, geometry,
        ),
        sido_scene.reference_solo,
    )
    assert combined >= single - 0.1, f"SIMO {combined:.2f} vs single {single:.2f}"
    passline(6, f"SNRF ordering holds: SBW {sbw:.2f} > MAW-SS {maw_ss:.2f} > "
                f"MAW {maw:.2f}; ANC {anc:.2f}; SIMO {combined:.2f} vs "
                f"single-channel {single:.2f}")


def test_criterion_07_runtime(comparison):
    sbw_rtf = sc.rtf(comparison["sbw"][1], 20.0)
    maw_rtf = sc.rtf(comparison["maw"][1], 20.0)
    assert sbw_rtf < 0.5
    passline(7, f"SBW real-time factor {sbw_rtf:.3f} < 0.5 "
                f"(MAW at reduced scale: {maw_rtf:.2f}, recorded only)")


def test_criterion_08_delay_estimation():
    rng = np.random.default_rng(8)
    frame = rng.standard_normal(2049) + 1j * rng.standard_normal(2049)
    geometry = sc.ArrayGeometry(spacing=0.07, f_max=2450.0, sample_rate=FS)
    worst = 0.0
    for kappa in range(9):
        rotated = frame * np.exp(-2j * np.pi * kappa * np.arange(2049) / 4096)
        est = sc.estimate_delay(frame, rotated, geometry)
        worst = max(worst, abs(est.kappa - kappa))
    assert worst < 0.1

    layout = sc.SidoLayout(spacing=0.0214, solo_angle_deg=21.3, accomp_angle_deg=90.0)
    cfg = sc.SceneConfig(
        solo=sc.noise_plus_tones(4.0, FS, seed=SCENE_SEED),
        accompaniment_reference=sc.broadband_accompaniment(4.0, FS, seed=SCENE_SEED),
        mic_ir=sc.make_mic_ir(13.7, 606, seed=SCENE_SEED),
        channel_delay=0,
        level_diff_db=None,
        accompaniment_gain=0.0,  # mute: channels hold only the delayed solo
        sido=layout,
    )
    scene = sc.synth_sido(cfg)
    window = sc.make_window("kbd", 4096, 4.0)
    frames1 = sc.stft(scene.mixture, window, 2048).frames
    frames2 = sc.stft(scene.mixture2, window, 2048).frames
    geo = sc.ArrayGeometry(spacing=0.0214, f_max=8000.0, sample_rate=FS)
    estimates = []
    for t in range(1, frames1.shape[0] - 1):
        try:
            estimates.append(sc.estimate_delay(frames1[t], frames2[t], geo).kappa)
        except sc.NoSignalError:
            continue
    measured = float(np.median(estimates))
    true_kappa = layout.solo_delay_samples(FS)
    assert abs(measured - true_kappa) < 0.25
    passline(8, f"integer delays 0..8 recovered (max error {worst:.2e}); "
                f"scene delay {true_kappa:.3f} estimated as {measured:.3f}")


def test_criterion_09_mrc_identity():
    rng = np.random.default_rng(9)
    e1 = rng.standard_normal(2049) + 1j * rng.standard_normal(2049)
    for kappa in (0.0, 1.0, 2.5):
        e2 = e1 * np.exp(-2j * np.pi * kappa * np.arange(2049) / 4096)
        out = sc.mrc_combine(e1, e2, kappa)
        assert np.max(np.abs(out - e1)) < 1e-12
    passline(9, "MRC reproduces channel 1 exactly under perfect counter-rotation")


def test_criterion_10_stft_round_trip():
    rng = np.random.default_rng(10)
    x = sc.AudioBuffer(rng.standard_normal(5 * FS), FS)
    window = sc.make_window("kbd", 4096, 4.0)
    back = sc.istft(sc.stft(x, window, 2048))
    inner = slice(4096, len(x) - 4096)
    err_db = 20 * np.log10(
        np.linalg.norm(back.samples[inner] - x.samples[inner])
        / np.linalg.norm(x.samples[inner])
    )
    assert err_db < -60.0
    passline(10, f"WOLA round trip at {err_db:.0f} dB interior error")


def test_criterion_11_metric_oracles():
    rng = np.random.default_rng(11)
    est = sc.AudioBuffer(0.1 * rng.standard_normal(2 * FS), FS)
    ref = sc.AudioBuffer(0.1 * rng.standard_normal(2 * FS), FS)
    part = sc.make_partition(512, FS, 16000.0, 4)
    window = sc.make_window("kbd", 512, 4.0)
    got = sc.snrf(est, ref, part, fft_size=512, hop=256, window=window)

    mag_est = np.abs(sc.stft(est, window, 256).frames)
    mag_ref = np.abs(sc.stft(ref, window, 256).frames)
    cells = []
    for t in range(mag_est.shape[0]):
        for band in range(1, part.num_bands + 1):
            sl = part.band_slice(band)
            size = sl.stop - sl.start
            psi_s = sum(mag_ref[t, w] ** 2 for w in range(sl.start, sl.stop)) / size
            psi_n = sum(
                (mag_est[t, w] - mag_ref[t, w]) ** 2 for w in range(sl.start, sl.stop)
            ) / size
            if psi_s <= 0:
                continue
            cell = 100.0 if psi_n <= 0 else np.clip(
                10 * np.log10(psi_s / psi_n), -100.0, 100.0
            )
            cells.append(cell)
    assert got == pytest.approx(float(np.mean(cells)), abs=1e-9)

    s0 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    small_part = sc.make_partition(16, FS, 16000.0, 4)
    gains = sc.subband_wiener_gains(s0, x, small_part)
    for band in range(1, small_part.num_bands + 1):
        sl = small_part.band_slice(band)
        auto = sum(abs(s0[w]) ** 2 for w in range(sl.start, sl.stop)) / (sl.stop - sl.start)
        cross = sum(abs(np.conj(s0[w]) * x[w]) for w in range(sl.start, sl.stop)) / (
            sl.stop - sl.start
        )
        assert gains[band - 1] == pytest.approx(cross / auto, abs=1e-9)

    zero = sc.AudioBuffer(np.zeros(len(ref)), FS)
    assert sc.snrf(zero, ref, part, fft_size=512, hop=256, window=window) == 0.0
    passline(11, "SNRF and subband gains match brute-force evaluation; "
                 "SNRF(silent estimate) is exactly 0 dB")


def test_criterion_12_determinism(tmp_path):
    artifacts = []
    for label in ("first", "second"):
        scene_dir = tmp_path / f"scene_{label}"
        est = tmp_path / f"est_{label}.wav"
        csv = tmp_path / f"metrics_{label}.csv"
        commands = [
            ["simulate", "--duration", "1.0", "--seed", "23",
             "--out-dir", str(scene_dir)],
            ["cancel", "--algo", "sbw", "--set", "fft_size=1024",
             str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"),
             str(est)],
            ["evaluate", str(est), str(scene_dir / "reference_solo.wav"),
             "--csv", str(csv), "--fft-size", "1024", "--hop", "512"],
        ]
        # the child interpreter imports the package under test, installed or not
        package_root = os.path.dirname(os.path.dirname(sc.__file__))
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "solocancel", *command],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            )
            assert proc.returncode == 0, proc.stderr
        artifacts.append(
            (
                (scene_dir / "mixture.wav").read_bytes(),
                (scene_dir / "reference.wav").read_bytes(),
                (scene_dir / "reference_solo.wav").read_bytes(),
                est.read_bytes(),
                csv.read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]
    passline(12, "seeded simulate+cancel+evaluate pipelines are byte-identical")
