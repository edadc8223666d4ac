import dataclasses
import inspect
import os
import re
import sys

import numpy as np
import pytest
import scipy.io.wavfile

from solocancel import (
    AncConfig, ArrayGeometry, AudioBuffer, BlockWienerConfig, MawSsConfig, SbwConfig,
    measure, read_channels, read_mono, write_wav,
)
from solocancel import cli
from solocancel.cli import (
    ALGORITHMS, EXIT_BAD_ARGS, EXIT_IO, EXIT_NUMERIC, build_algorithm_config, main,
)
from solocancel.sbw import sbw_cancel
from solocancel.scenes import SidoLayout, read_kv
from solocancel.simo import sbw_simo_cancel
from solocancel.wiener import maw_ss_cancel


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    code = run_cli(
        "simulate", "--duration", "1.5", "--seed", "3", "--out-dir", str(out)
    )
    assert code == 0
    return out


def bound(algorithm, preset, overrides):
    """The settings ``build_algorithm_config`` bound to the canceller it returns."""
    return build_algorithm_config(algorithm, preset, overrides).keywords


class TestBuildAlgorithmConfig:
    def test_paper_presets(self):
        anc = bound("anc", "paper-v", {})["cfg"]
        assert (anc.taps, anc.mu, anc.prewhiten) == (1023, 0.10, False)
        ancpw = bound("anc-pw", "paper-v", {})["cfg"]
        assert (ancpw.taps, ancpw.mu, ancpw.lp_order, ancpw.prewhiten) == (
            1023, 0.01, 15, True,
        )
        maw = bound("maw", "paper-v", {})["cfg"]
        assert (maw.taps, maw.block_size, maw.hop) == (1023, 16384, 64)
        mawss = bound("maw-ss", "paper-v", {})["cfg"]
        assert (mawss.taps, mawss.block_size, mawss.hop) == (1023, 16384, 64)
        assert (mawss.fft_size, mawss.fft_hop, mawss.p) == (4096, 2048, 2.0)
        sbw = bound("sbw", "paper-v", {})["cfg"]
        assert (sbw.fft_size, sbw.hop, sbw.num_bands) == (4096, 2048, 39)
        simo = bound("sbw-simo", "paper-v", {})["cfg"]
        assert (simo.fft_size, simo.hop, simo.num_bands) == (4096, 2048, 39)
        assert simo.spacing == pytest.approx(0.0214)
        assert simo.kappa is None

    def test_overrides_applied(self):
        cfg = bound("sbw", "none", {"fft_size": 1024, "p": 2.0})["cfg"]
        assert cfg.fft_size == 1024 and cfg.hop == 512 and cfg.p == 2.0

    @pytest.mark.parametrize("text,normalized", [("false", False), ("0", False), ("1", True)])
    def test_boolean_and_integer_settings_parse(self, text, normalized):
        overrides = cli._parse_overrides([f"normalized={text}", "taps=255"])
        cfg = bound("anc", "none", overrides)["cfg"]
        assert (cfg.normalized, cfg.taps) == (normalized, 255)
        assert type(cfg.normalized) is bool and type(cfg.taps) is int

    def test_invalid_setting_names_its_key(self, tmp_path, capsys):
        code = run_cli(
            "cancel", "--algo", "maw", "--set", "interpolate=off",
            str(tmp_path / "no.wav"), str(tmp_path / "no2.wav"), str(tmp_path / "out.wav"),
        )
        assert code == EXIT_BAD_ARGS
        assert "interpolate" in capsys.readouterr().err

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            build_algorithm_config("sbw", "none", {"bogus": 1})
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_algorithm_config("bogus", "none", {})

    def test_invalid_values_rejected_before_audio(self):
        with pytest.raises(ValueError):
            build_algorithm_config("maw", "none", {"taps": 4096, "block_size": 1024})
        with pytest.raises(ValueError):
            build_algorithm_config("sbw", "none", {"p": 0.0})

    @pytest.mark.parametrize("algorithm,overrides", [
        ("sbw", {"wiener_exponent": -1.0}),
        ("sbw", {"hop": 99999}),
        ("maw-ss", {"fft_size": 1023}),
        ("maw-ss", {"window_shape": -1.0}),
        ("sbw-simo", {"spacing": -1.0}),
        ("sbw-simo", {"f_max": 0.0}),
        ("maw-ss", {"fft_hop": 0}),
        ("sbw", {"p": np.nan}),
        ("sbw", {"wiener_exponent": np.nan}),
        ("sbw", {"window_shape": np.nan}),
        ("maw-ss", {"p": np.nan}),
        ("maw", {"regularization": np.nan}),
        ("anc", {"mu": np.nan}),
        ("anc", {"normalized": "no"}),
        ("anc", {"prewhiten": "nope"}),
        ("maw", {"interpolate": "off"}),
        ("anc", {"taps": 1.7}),
        ("anc", {"mu": "abc"}),
        ("maw", {"regularization": "abc"}),
        ("maw-ss", {"window_shape": "abc"}),
        ("maw-ss", {"p": "abc"}),
        ("sbw", {"p": "abc"}),
        ("sbw", {"wiener_exponent": "abc"}),
        ("sbw-simo", {"spacing": "abc"}),
        ("sbw-simo", {"f_max": "abc"}),
        ("sbw-simo", {"kappa": "abc"}),
        ("sbw-simo", {"kappa": np.nan}),
        ("sbw-simo", {"kappa": np.inf}),
        ("sbw", {"window_shape": 300.0}),
        ("sbw", {"window_shape": np.inf}),
        ("maw-ss", {"window_shape": 300.0}),
        ("sbw", {"p": np.inf}),
        ("sbw", {"wiener_exponent": np.inf}),
        ("maw-ss", {"p": np.inf}),
        ("maw", {"regularization": np.inf}),
        ("anc", {"mu": np.inf}),
        ("anc-pw", {"mu": np.inf}),
    ], ids=["sbw-wiener_exponent", "sbw-hop", "maw-ss-fft_size", "maw-ss-window_shape",
            "sbw-simo-spacing", "sbw-simo-f_max", "maw-ss-fft_hop", "sbw-p-nan", "sbw-wiener_exponent-nan",
            "sbw-window_shape-nan", "maw-ss-p-nan", "maw-regularization-nan", "anc-mu-nan",
            "anc-normalized-no", "anc-prewhiten-nope", "maw-interpolate-off", "anc-taps-1.7",
            "anc-mu-text", "maw-regularization-text", "maw-ss-window_shape-text",
            "maw-ss-p-text", "sbw-p-text", "sbw-wiener_exponent-text",
            "sbw-simo-spacing-text", "sbw-simo-f_max-text", "sbw-simo-kappa-text",
            "sbw-simo-kappa-nan", "sbw-simo-kappa-inf", "sbw-window_shape-300",
            "sbw-window_shape-inf", "maw-ss-window_shape-300", "sbw-p-inf",
            "sbw-wiener_exponent-inf", "maw-ss-p-inf", "maw-regularization-inf", "anc-mu-inf",
            "anc-pw-mu-inf"])
    def test_config_checks_run_before_audio(self, algorithm, overrides, tmp_path, capsys):
        with pytest.raises(ValueError):
            build_algorithm_config(algorithm, "none", overrides)
        (key, value), = overrides.items()
        code = run_cli(
            "cancel", "--algo", algorithm, "--set", f"{key}={value}",
            str(tmp_path / "no.wav"), str(tmp_path / "no2.wav"), str(tmp_path / "out.wav"),
        )
        assert code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err), err  # every error names its key
        if isinstance(value, str):  # a value of the wrong kind says what the key takes
            assert f"{key} must be" in err

    @pytest.mark.parametrize("algorithm,key,value", [
        ("sbw", "cross_cov", "bogus"),
        ("sbw-simo", "cross_cov", "magnitude"),
        ("sbw", "cutoff", "-1.0"),
        ("sbw", "cutoff", "16000"),
        ("sbw", "window", "4"),
        ("maw-ss", "window", "6"),
    ], ids=["sbw-cross_cov", "sbw-simo-cross_cov", "sbw-cutoff", "sbw-cutoff-16k", "sbw-window",
            "maw-ss-window"])
    def test_fixed_spectral_settings_are_unknown_keys(
        self, algorithm, key, value, scene_dir, tmp_path, capsys
    ):
        """The band cutoff, the cross-covariance rule and the window kind are fixed, so no
        value sets them; ``window_shape`` sets the shape of the KBD window."""
        out = tmp_path / "out.wav"
        code = run_cli(
            "cancel", "--algo", algorithm, "--set", f"{key}={value}",
            str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"), str(out),
        )
        assert code == EXIT_BAD_ARGS and not out.exists()
        assert f"unknown parameter(s) for {algorithm}: {key}" in capsys.readouterr().err


#: The library config whose fields are each canceller's ``--set`` keys.
LIBRARY_CONFIGS = {"anc": AncConfig, "anc-pw": AncConfig, "maw": BlockWienerConfig,
                   "maw-ss": MawSsConfig, "sbw": SbwConfig, "sbw-simo": SbwConfig}


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_set_keys_are_the_library_config_fields(algorithm):
    """The ``--set`` keys are exactly the config's fields, and for ``sbw-simo`` the array's and
    the fixed delay's too; each default is the library's unless the entry lists it, so no
    field can be missed."""
    entry = ALGORITHMS[algorithm]
    keys = entry.keys()
    library = {f.name: f.default for f in dataclasses.fields(LIBRARY_CONFIGS[algorithm])}
    if algorithm == "sbw-simo":  # the array, at the mixture's rate, and the fixed delay
        library.update((f.name, f.default) for f in dataclasses.fields(ArrayGeometry)
                       if f.name != "sample_rate")
        library["kappa"] = inspect.signature(sbw_simo_cancel).parameters["kappa"].default
    assert set(keys) == set(library)
    assert set(entry.defaults) | set(entry.paper_v) <= set(keys)
    for name, default in library.items():
        assert keys[name][1] == entry.defaults.get(name, default), name
    for key, (kind, default) in keys.items():
        assert callable(kind) and default is not dataclasses.MISSING, key


class TestSimulate:
    def test_outputs_exist_with_manifest(self, scene_dir):
        for name in ("mixture.wav", "reference.wav", "reference_solo.wav", "scene.manifest"):
            assert (scene_dir / name).exists()
        manifest = read_kv(scene_dir / "scene.manifest")
        assert manifest["kappa"] == "32"
        assert manifest["sido"] == "0"

    def test_sido_writes_stereo_mixture(self, tmp_path):
        out = tmp_path / "sido"
        assert run_cli(
            "simulate", "--duration", "1.0", "--seed", "1", "--sido",
            "--out-dir", str(out),
        ) == 0
        from solocancel import read_wav

        data, _ = read_wav(out / "mixture.wav")
        assert data.ndim == 2 and data.shape[1] == 2

    def test_sido_spacing_past_8_khz_limit_lowers_f_max(self, tmp_path):
        out = tmp_path / "wide"
        assert run_cli(
            "simulate", "--duration", "0.5", "--sido", "--spacing", "0.03",
            "--out-dir", str(out),
        ) == 0
        from solocancel import read_wav

        data, _ = read_wav(out / "mixture.wav")
        assert data.ndim == 2 and data.shape[1] == 2

    def test_sido_zero_spacing_rejected(self, tmp_path, capsys):
        # checked before the scene's f_max divides by the spacing
        out = tmp_path / "flat"
        assert run_cli(
            "simulate", "--duration", "0.5", "--sido", "--spacing", "0", "--out-dir", str(out),
        ) == EXIT_BAD_ARGS
        assert "spacing must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--gain", "nan"), ("--gain", "inf"), ("--level-diff", "nan"), ("--level-diff", "inf"),
        ("--solo-angle", "nan"), ("--solo-angle", "inf"), ("--rt-ms", "nan"), ("--rt-ms", "inf"),
        ("--spacing", "nan"), ("--spacing", "inf"),
    ])
    def test_non_finite_gain_rejected(self, flag, value, tmp_path, capsys):
        out = tmp_path / "scene"
        sido = ("--sido",) if flag in ("--solo-angle", "--spacing") else ()  # the array's flags
        code = run_cli(
            "simulate", "--duration", "0.5", *sido, f"{flag}={value}", "--out-dir", str(out)
        )
        assert code == EXIT_BAD_ARGS
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (out / "mixture.wav").exists()

    def test_overflowing_level_diff_rejected(self, tmp_path):
        out = tmp_path / "scene"
        code = run_cli("simulate", "--duration", "0.3", "--level-diff", "1e5", "--out-dir", str(out))
        assert code == EXIT_BAD_ARGS
        assert not (out / "mixture.wav").exists()

    @pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf"])
    def test_duration_without_samples_rejected(self, duration, tmp_path, capsys):
        out = tmp_path / "scene"
        code = run_cli("simulate", f"--duration={duration}", "--out-dir", str(out))
        assert code == EXIT_BAD_ARGS
        assert "duration" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_supplies_parameters(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("kappa=7\nlevel_diff=3.0\nduration=1.0\nseed=9\n")
        out = tmp_path / "from_cfg"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == 0
        manifest = read_kv(out / "scene.manifest")
        assert manifest["kappa"] == "7"
        assert manifest["level_diff_db"] == "3.0"

    @pytest.mark.parametrize(
        "line, key",
        [("sido=on", "sido"), ("sido=2", "sido"), ("sido=yes", "sido"), ("kappa=3.5", "kappa"),
         ("seed=abc", "seed"), ("duration=abc", "duration")],
    )
    def test_bad_config_value_rejected(self, line, key, tmp_path, capsys):
        # values follow the --set rules: no silent mono scene, no truncated integer
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(f"duration=0.3\n{line}\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == EXIT_BAD_ARGS
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, sido, kappa",
        [("sido=true", "1", "32"), ("sido=1", "1", "32"), ("kappa=7.0", "0", "7")],
    )
    def test_config_values_read_as_set_values(self, line, sido, kappa, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(f"duration=0.3\n{line}\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == 0
        manifest = read_kv(out / "scene.manifest")
        assert (manifest["sido"], manifest["kappa"]) == (sido, kappa)

    @pytest.mark.parametrize("line", ["accomp_angle=45", "bogus=1"])
    def test_unknown_config_key_rejected(self, line, tmp_path, capsys):
        # the accompaniment's angle is not modelled, so no file sets it
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(f"duration=0.3\nsido=1\n{line}\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == EXIT_BAD_ARGS
        assert f"unknown scene parameter {line.split('=')[0]!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--sido", "--out-dir", "{out}"],
        ["sweep", "--param", "mic-spacing", "--values", "0.02", "--num-scenes", "1",
         "--out", "{out}/s.csv"],
    ], ids=["simulate", "sweep"])
    def test_accomp_angle_flag_rejected(self, argv, tmp_path):
        # the accompaniment's angle is not modelled, so no flag sets it
        argv = [arg.format(out=tmp_path) for arg in argv]
        assert run_cli(*argv, "--duration", "0.3", "--accomp-angle", "45") == EXIT_BAD_ARGS
        assert list(tmp_path.iterdir()) == []

    def test_simulate_from_wav_inputs(self, tmp_path):
        rng = np.random.default_rng(2)
        solo = tmp_path / "d.wav"
        accomp = tmp_path / "s0.wav"
        write_wav(solo, 0.05 * rng.standard_normal(44100), 44100)
        write_wav(accomp, 0.05 * rng.standard_normal(44100), 44100)
        out = tmp_path / "filescene"
        code = run_cli(
            "simulate", "--solo", str(solo), "--accomp", str(accomp),
            "--level-diff", "6.02", "--kappa", "32", "--out-dir", str(out),
        )
        assert code == 0
        from solocancel import read_mono

        mixture = read_mono(out / "mixture.wav")
        ref_solo = read_mono(out / "reference_solo.wav")
        accomp_part = mixture.samples - ref_solo.samples
        diff = 20 * np.log10(
            np.sqrt(np.mean(accomp_part**2)) / ref_solo.rms()
        )
        assert diff == pytest.approx(6.02, abs=0.05)  # float32 quantization

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("kappa=7\nduration=1.0\n")
        out = tmp_path / "override"
        assert run_cli(
            "simulate", "--config", str(cfg), "--kappa", "11", "--out-dir", str(out)
        ) == 0
        assert read_kv(out / "scene.manifest")["kappa"] == "11"


class TestCancelEvaluate:
    def test_cancel_and_evaluate(self, scene_dir, tmp_path, capsys):
        est = tmp_path / "est.wav"
        code = run_cli(
            "cancel", "--algo", "sbw", "--set", "fft_size=1024",
            str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"), str(est),
        )
        assert code == 0
        assert "rtf=" in capsys.readouterr().out
        csv_path = tmp_path / "metrics.csv"
        code = run_cli(
            "evaluate", str(est), str(scene_dir / "reference_solo.wav"),
            "--csv", str(csv_path), "--fft-size", "1024", "--hop", "512",
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("rmsd_db,snrf_db,rtf")
        assert len(lines) == 2

    @pytest.mark.parametrize("timing", [(), ("--elapsed", "0.5")], ids=["untimed", "timed"])
    def test_evaluate_csv_is_the_report(self, timing, scene_dir, tmp_path):
        """The CSV's header and its one row of ``measure``'s report: six-decimal figures, an
        empty ``rtf`` field without ``--elapsed``, then the settings it measured with."""
        est, ref = scene_dir / "mixture.wav", scene_dir / "reference_solo.wav"
        csv_path = tmp_path / "m.csv"
        assert run_cli("evaluate", str(est), str(ref), "--csv", str(csv_path), *timing,
                       "--bands", "16", "--fft-size", "1024") == 0
        rep = measure(read_mono(est), read_mono(ref), num_bands=16,
                      fft_size=1024, elapsed=0.5 if timing else None)
        rtf = f"{rep.rtf:.6f}" if timing else ""
        assert csv_path.read_text() == (
            "rmsd_db,snrf_db,rtf,block_size,segments,num_bands\n"
            f"{rep.rmsd_db:.6f},{rep.snrf_db:.6f},{rtf},1024,{rep.params['segments']},16\n"
        )

    def test_evaluate_hop_defaults_to_half_the_frame(self, scene_dir, tmp_path):
        ref = str(scene_dir / "reference_solo.wav")
        est = str(scene_dir / "mixture.wav")
        default, half = tmp_path / "default.csv", tmp_path / "half.csv"
        assert run_cli("evaluate", est, ref, "--csv", str(default), "--fft-size", "1024") == 0
        assert run_cli(
            "evaluate", est, ref, "--csv", str(half), "--fft-size", "1024", "--hop", "512"
        ) == 0
        assert default.read_bytes() == half.read_bytes()

    def test_maw_ss_stft_hop_defaults_to_half_the_frame(self, scene_dir, tmp_path):
        default, half = tmp_path / "default.wav", tmp_path / "half.wav"
        inputs = (str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"))
        assert run_cli("cancel", "--algo", "maw-ss", "--set", "fft_size=1024",
                       *inputs, str(default)) == 0
        assert run_cli("cancel", "--algo", "maw-ss", "--set", "fft_size=1024",
                       "--set", "fft_hop=512", *inputs, str(half)) == 0
        assert default.read_bytes() == half.read_bytes()

    def test_identical_files_hit_floors(self, scene_dir, capsys):
        ref = scene_dir / "reference_solo.wav"
        assert run_cli("evaluate", str(ref), str(ref)) == 0
        out = capsys.readouterr().out
        assert "-120.00" in out and "100.00" in out

    @pytest.mark.parametrize("elapsed", ["nan", "inf"])
    def test_non_finite_elapsed_rejected(self, elapsed, scene_dir):
        ref = str(scene_dir / "reference_solo.wav")
        code = run_cli("evaluate", ref, ref, "--elapsed", elapsed)
        assert code == EXIT_BAD_ARGS

    def test_missing_input_is_io_error(self, tmp_path):
        code = run_cli(
            "cancel", "--algo", "sbw", str(tmp_path / "no.wav"),
            str(tmp_path / "no2.wav"), str(tmp_path / "out.wav"),
        )
        assert code == EXIT_IO

    def test_truncated_input_is_io_error(self, scene_dir, tmp_path, capsys):
        cut = tmp_path / "cut.wav"
        cut.write_bytes(b"RIF")
        code = run_cli(
            "cancel", "--algo", "sbw", str(cut), str(scene_dir / "reference.wav"),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and err.count("\n") == 1

    def test_non_finite_input_is_numeric_failure(self, scene_dir, tmp_path, capsys):
        mixture = read_mono(scene_dir / "mixture.wav").samples.astype(np.float32)
        mixture[100] = np.nan
        bad = tmp_path / "nan.wav"
        scipy.io.wavfile.write(bad, 44100, mixture)  # write_wav refuses non-finite samples
        code = run_cli(
            "cancel", "--algo", "sbw", str(bad), str(scene_dir / "reference.wav"),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    def test_diverging_filter_is_numeric_failure(self, scene_dir, tmp_path, capsys):
        code = run_cli(
            "cancel", "--algo", "anc-pw", "--set", "taps=1", "--set", "mu=0.05",
            "--set", "lp_order=4", "--set", "refresh_interval=441",
            str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_NUMERIC
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    def test_cancel_at_22050_hz(self, tmp_path):
        rng = np.random.default_rng(4)
        mix, ref = tmp_path / "mix.wav", tmp_path / "ref.wav"
        write_wav(mix, 0.1 * rng.standard_normal(22050), 22050)
        write_wav(ref, 0.1 * rng.standard_normal(22050), 22050)
        code = run_cli("cancel", "--algo", "sbw", str(mix), str(ref), str(tmp_path / "out.wav"))
        assert code == 0
        assert read_mono(tmp_path / "out.wav").sample_rate == 22050

    def test_bad_override_is_usage_error(self, scene_dir, tmp_path):
        code = run_cli(
            "cancel", "--algo", "sbw", "--set", "bogus=1",
            str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_BAD_ARGS

    def test_unknown_algorithm_is_usage_error(self, scene_dir, tmp_path):
        code = run_cli(
            "cancel", "--algo", "fancy",
            str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_BAD_ARGS

    def test_timing_sidecar(self, scene_dir, tmp_path):
        est = tmp_path / "est.wav"
        timing = tmp_path / "timing.txt"
        code = run_cli(
            "cancel", "--algo", "sbw", "--set", "fft_size=1024",
            "--timing-out", str(timing),
            str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"), str(est),
        )
        assert code == 0
        parsed = read_kv(timing)
        assert float(parsed["elapsed_s"]) > 0
        assert float(parsed["rtf"]) > 0

    def test_simo_requires_stereo(self, scene_dir, tmp_path):
        code = run_cli(
            "cancel", "--algo", "sbw-simo",
            str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_BAD_ARGS

    @pytest.mark.parametrize("algorithm", ["anc", "maw"])
    def test_empty_take_rejected(self, algorithm, tmp_path, capsys):
        empty = tmp_path / "empty.wav"
        write_wav(empty, np.zeros(0), 44100)
        est = tmp_path / "est.wav"
        code = run_cli("cancel", "--algo", algorithm, str(empty), str(empty), str(est))
        assert code == EXIT_BAD_ARGS
        assert "duration must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert not est.exists()

    def test_one_channel_canceller_cancels_channel_1(self, tmp_path):
        scene = tmp_path / "stereo"
        assert run_cli(
            "simulate", "--duration", "1", "--seed", "5", "--sido", "--out-dir", str(scene)
        ) == 0
        est, oracle = tmp_path / "est.wav", tmp_path / "oracle.wav"
        code = run_cli(
            "cancel", "--algo", "sbw", str(scene / "mixture.wav"), str(scene / "reference.wav"),
            str(est),
        )
        assert code == 0
        channel1 = read_channels(scene / "mixture.wav")[0]
        expected = sbw_cancel(channel1, read_mono(scene / "reference.wav"))
        write_wav(oracle, expected.samples, expected.sample_rate)
        assert est.read_bytes() == oracle.read_bytes()

        # sbw-simo takes exactly two channels
        for width in (1, 3):
            mixture = tmp_path / f"mixture{width}.wav"
            write_wav(mixture, np.tile(channel1.samples[:, None], width), 44100)
            assert len(read_channels(mixture)) == width
            code = run_cli(
                "cancel", "--algo", "sbw-simo", str(mixture), str(scene / "reference.wav"),
                str(tmp_path / "out.wav"),
            )
            assert code == EXIT_BAD_ARGS

    def test_sample_rate_mismatch_rejected(self, scene_dir, tmp_path):
        other = tmp_path / "mismatch.wav"
        write_wav(other, np.zeros(1000), 22050)
        code = run_cli(
            "cancel", "--algo", "sbw", str(scene_dir / "mixture.wav"), str(other),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_BAD_ARGS


#: Small settings that keep each canceller fast on a 1.5-s scene.
SMALL_SETTINGS = {
    "anc": ["taps=32"],
    "anc-pw": ["taps=32", "refresh_interval=8192"],
    "maw": ["taps=63", "block_size=2048", "hop=512"],
    "maw-ss": ["taps=63", "block_size=2048", "hop=512", "fft_size=1024", "fft_hop=512"],
    "sbw": ["fft_size=1024"],
    "sbw-simo": ["fft_size=1024"],
}


@pytest.fixture
def stereo_scene_dir(tmp_path):
    out = tmp_path / "stereo"
    assert run_cli(
        "simulate", "--duration", "1.5", "--seed", "3", "--sido", "--out-dir", str(out)
    ) == 0
    return out


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_cancel_runs_every_algorithm(algorithm, scene_dir, stereo_scene_dir, tmp_path):
    scene = stereo_scene_dir if algorithm == "sbw-simo" else scene_dir
    est = tmp_path / "est.wav"
    overrides = [arg for setting in SMALL_SETTINGS[algorithm] for arg in ("--set", setting)]
    code = run_cli(
        "cancel", "--algo", algorithm, *overrides,
        str(scene / "mixture.wav"), str(scene / "reference.wav"), str(est),
    )
    assert code == 0
    estimate = read_mono(est)
    reference = read_mono(scene / "reference.wav")
    assert len(estimate) == len(reference)
    assert estimate.sample_rate == reference.sample_rate
    assert np.all(np.isfinite(estimate.samples))


def test_frame_commands_load_no_scipy(scene_dir, stereo_scene_dir, tmp_path, fresh_python):
    """``cancel --algo sbw``, ``cancel --algo sbw-simo`` and ``evaluate`` need numpy only:
    a fresh interpreter that runs them loads no scipy module."""
    est, est_simo = tmp_path / "est.wav", tmp_path / "est_simo.wav"
    runs = [
        ["cancel", "--algo", "sbw", "--set", "fft_size=1024",
         str(scene_dir / "mixture.wav"), str(scene_dir / "reference.wav"), str(est)],
        ["cancel", "--algo", "sbw-simo", "--set", "fft_size=1024",
         str(stereo_scene_dir / "mixture.wav"), str(stereo_scene_dir / "reference.wav"),
         str(est_simo)],
        ["evaluate", str(est), str(scene_dir / "reference_solo.wav")],
    ]
    lines = fresh_python(
        "from solocancel.cli import main\n"
        f"print([main(argv) for argv in {runs!r}])\n"
        "print(scipy_modules())"
    )
    assert lines[-2:] == ["[0, 0, 0]", "[]"]
    assert est.exists() and est_simo.exists()


@pytest.mark.parametrize("kappa", ["1e20", "-1e300", "3.26"])
def test_simo_fixed_delay_past_the_array_rejected(kappa, stereo_scene_dir, tmp_path, capsys):
    # the 2.14-cm array at 44.1 kHz: at most 2.75 samples, searched to 3.25
    est = tmp_path / "est.wav"
    code = run_cli(
        "cancel", "--algo", "sbw-simo", "--set", f"kappa={kappa}",
        str(stereo_scene_dir / "mixture.wav"), str(stereo_scene_dir / "reference.wav"), str(est),
    )
    assert code == EXIT_BAD_ARGS
    assert "kappa" in capsys.readouterr().err
    assert not est.exists()


class ClosedStdout:
    """A stdout whose reader has gone: ``write`` or ``flush`` raises BrokenPipeError."""

    def __init__(self, fd, failing):
        self.fd, self.failing = fd, failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_closed_stdout_is_not_a_failure(failing, scene_dir, tmp_path, monkeypatch, capsys):
    with open(tmp_path / "stdout", "wb") as held:  # stands in for the pipe's descriptor
        monkeypatch.setattr(sys, "stdout", ClosedStdout(held.fileno(), failing))
        code = run_cli("evaluate", str(scene_dir / "mixture.wav"),
                       str(scene_dir / "reference_solo.wav"))
        monkeypatch.undo()
        assert code == 0
        assert capsys.readouterr().err == ""
        # the descriptor now points at the null device, so a last flush cannot fail
        assert os.path.samestat(os.fstat(held.fileno()), os.stat(os.devnull))


class TestSweep:
    def test_subbands_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "subbands", "--values", "8,39",
            "--num-scenes", "2", "--duration", "1.0", "--seed", "1",
            "--set", "fft_size=1024", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "param,value,scene,algorithm,metric,measurement,median,q25,q75"
        # 2 values x 2 scenes x 2 metrics: by value, then metric, then scene
        order = [tuple(row.split(",")[i] for i in (1, 2, 4)) for row in lines[1:]]
        assert order == [
            (value, scene, metric)
            for value in ("8", "39") for metric in ("rmsd_db", "snrf_db") for scene in ("0", "1")
        ]

    def test_angle_mismatch_runs_simo(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "angle-mismatch", "--values", "0,10",
            "--num-scenes", "1", "--duration", "1.0",
            "--set", "fft_size=1024", "--out", str(out),
        )
        assert code == 0
        body = out.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[3] == "sbw-simo" for row in body)

    @pytest.mark.parametrize("spacing", [0.01, 0.0214])
    def test_angle_mismatch_zero_uses_true_delay(self, spacing, tmp_path, monkeypatch):
        kappas = []

        def recording(*args, kappa=None, **kwargs):
            kappas.append(kappa)
            return sbw_simo_cancel(*args, kappa=kappa, **kwargs)

        monkeypatch.setattr(cli, "sbw_simo_cancel", recording)
        code = run_cli(
            "sweep", "--param", "angle-mismatch", "--values", "0", "--num-scenes", "1",
            "--duration", "0.5", "--spacing", str(spacing), "--set", "fft_size=1024",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        true_delay = SidoLayout(spacing, 21.3, 90.0).solo_delay_samples(44100)
        assert kappas == [true_delay]

    def test_maw_ss_fft_size_sweep_sets_the_stft_hop(self, tmp_path, monkeypatch):
        calls = []

        def recording(mixture, reference, cfg):
            calls.append((cfg.hop, cfg.fft_size, cfg.fft_hop))
            return maw_ss_cancel(mixture, reference, cfg)

        monkeypatch.setattr(cli, "maw_ss_cancel", recording)
        code = run_cli(
            "sweep", "--param", "fft-size", "--values", "1024,2048", "--algo", "maw-ss",
            "--num-scenes", "1", "--duration", "0.5", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        # the block-Wiener hop keeps its default; the STFT hop is half the swept frame
        assert calls == [(1024, 1024, 512), (1024, 2048, 1024)]

    def test_fft_size_sweep_keeps_an_explicit_hop(self, tmp_path, monkeypatch):
        hops = []

        def recording(mixture, reference, cfg):
            hops.append((cfg.fft_size, cfg.hop))
            return sbw_cancel(mixture, reference, cfg)

        monkeypatch.setattr(cli, "sbw_cancel", recording)
        code = run_cli(
            "sweep", "--param", "fft-size", "--values", "1024,2048", "--set", "hop=256",
            "--num-scenes", "1", "--duration", "0.5", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert hops == [(1024, 256), (2048, 256)]

    def test_simo_algorithm_runs_two_mic_pipeline_on_one_mic_params(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--algo", "sbw-simo", "--param", "subbands", "--values", "8,39",
            "--num-scenes", "1", "--duration", "1.0", "--set", "fft_size=1024",
            "--out", str(out),
        )
        assert code == 0
        body = out.read_text().strip().split("\n")[1:]
        assert len(body) == 4
        assert all(row.split(",")[3] == "sbw-simo" for row in body)

    @pytest.mark.parametrize("param,key,value,hint", [
        ("subbands", "spacing", "0.01", "the array comes from --spacing"),
        ("subbands", "f_max", "5000", "the array comes from --spacing"),
        ("subbands", "kappa", "0.5", "swept with --param angle-mismatch"),
        ("angle-mismatch", "taps", "3", "taps"),
    ], ids=["spacing", "f_max", "kappa", "other"])
    def test_two_mic_sweep_names_sbw_simo(self, param, key, value, hint, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--algo", "sbw-simo", "--param", param, "--values", "8", "--num-scenes", "1",
            "--duration", "0.5", "--set", f"{key}={value}", "--out", str(out),
        )
        assert code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "for sbw-simo" in err and key in err and hint in err
        assert not out.exists()

    def test_mismatched_input_rates_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        solo = tmp_path / "solo.wav"
        accomp = tmp_path / "accomp.wav"
        write_wav(solo, 0.05 * rng.standard_normal(44100), 44100)
        write_wav(accomp, 0.05 * rng.standard_normal(22050), 22050)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "subbands", "--values", "8", "--num-scenes", "1",
            "--solo", str(solo), "--accomp", str(accomp), "--set", "fft_size=1024",
            "--out", str(out),
        )
        assert code == EXIT_BAD_ARGS
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--solo", "{solo}", "--accomp", "{accomp22}"],
         "solo/accompaniment must share a sample rate (44100 != 22050)"),
        (["--set", "bogus=1"], "unknown parameter(s) for sbw: bogus"),
        (["--set", "fft_size"], "--set expects key=value, got 'fft_size'"),
        (["--values", " , "], "--values is required"),
        (["--param", "mic-spacing", "--algo", "maw"],
         "mic-spacing sweeps run the two-microphone pipeline"),
    ], ids=["rate-mismatch", "unknown-key", "set-without-equals", "no-values", "two-mic-maw"])
    def test_error_no_value_causes_names_no_value(self, flags, message, tmp_path, monkeypatch,
                                                  capsys):
        rng = np.random.default_rng(5)
        paths = {"solo": tmp_path / "solo.wav", "accomp22": tmp_path / "accomp22.wav"}
        write_wav(paths["solo"], 0.05 * rng.standard_normal(44100), 44100)
        write_wav(paths["accomp22"], 0.05 * rng.standard_normal(22050), 22050)
        synthesised = []
        for name in ("synth_siso", "synth_sido"):
            monkeypatch.setattr(cli, name, synthesised.append)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "subbands", "--values", "8", "--num-scenes", "1",
            "--duration", "0.5", *(flag.format(**paths) for flag in flags), "--out", str(out),
        )
        assert code == EXIT_BAD_ARGS
        assert capsys.readouterr().err == f"error: {message}\n"  # no "subbands 8:" prefix
        assert synthesised == []
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0", "0.02,-0.01"])
    def test_nonpositive_mic_spacing_rejected(self, values, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "mic-spacing", "--values", values, "--num-scenes", "1",
            "--duration", "1.0", "--out", str(out),
        )
        assert code == EXIT_BAD_ARGS
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_scene_count_below_one_rejected(self, count, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "subbands", "--values", "8", "--num-scenes", count,
            "--out", str(out),
        )
        assert code == EXIT_BAD_ARGS
        assert not out.exists()

    @pytest.mark.parametrize("param,values,syntheses", [
        ("subbands", "8,20,39", 2),
        ("angle-mismatch", "0,10,20", 2),
        ("level-diff", "0,6,12", 6),
    ])
    def test_scene_synthesised_once_per_index(self, param, values, syntheses, tmp_path,
                                              monkeypatch):
        calls = []

        def counted(synth):
            def wrapper(cfg):
                calls.append(cfg)
                return synth(cfg)
            return wrapper

        for name in ("synth_siso", "synth_sido"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        code = run_cli(
            "sweep", "--param", param, "--values", values, "--num-scenes", "2",
            "--duration", "0.5", "--set", "fft_size=1024", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert len(calls) == syntheses

    @pytest.mark.parametrize("param,values,algorithm", [
        ("fft-size", "1024.5", "sbw"),
        ("subbands", "13.9", "sbw"),
        ("delay-mismatch", "3.7", "maw"),
        ("subbands", "8,-5", "sbw"),
        ("fft-size", "1024,1025", "sbw"),
        ("delay-mismatch", "16,-1", "sbw"),
        ("level-diff", "6,nan", "sbw"),
        ("window-shape", "4,wide", "sbw"),
        ("fft-size", "1024", "maw"),
        ("level-diff", "6,1e5", "sbw"),
        ("delay-mismatch", "5,22050", "sbw"),  # the 0.5-s take is 22050 samples
        ("angle-mismatch", "0,inf", "sbw"),
        ("p-norm", "1,inf", "sbw"),
    ], ids=["fraction", "fraction-bands", "fraction-delay", "negative-bands", "odd-frame",
            "negative-delay", "nan", "text", "not-a-maw-parameter", "gain-overflow",
            "delay-past-take", "angle-inf", "p-inf"])
    def test_bad_value_rejected_before_any_scene(self, param, values, algorithm, tmp_path,
                                                 monkeypatch, capsys):
        synthesised = []
        for name in ("synth_siso", "synth_sido"):
            monkeypatch.setattr(cli, name, synthesised.append)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--algo", algorithm, "--param", param, "--values", values,
            "--num-scenes", "1", "--duration", "0.5", "--out", str(out),
        )
        assert code == EXIT_BAD_ARGS
        assert param in capsys.readouterr().err
        assert synthesised == []
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf"])
    def test_duration_without_samples_rejected(self, duration, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "subbands", "--values", "8", "--num-scenes", "1",
            f"--duration={duration}", "--out", str(out),
        )
        assert code == EXIT_BAD_ARGS
        assert "duration" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_float_sweeps_an_integer(self, tmp_path, monkeypatch):
        sizes = []

        def recording(mixture, reference, cfg):
            sizes.append(cfg.fft_size)
            return sbw_cancel(mixture, reference, cfg)

        monkeypatch.setattr(cli, "sbw_cancel", recording)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--param", "fft-size", "--values", "1024.0", "--num-scenes", "1",
            "--duration", "0.5", "--out", str(out),
        )
        assert code == 0
        assert sizes == [1024] and type(sizes[0]) is int
        assert out.read_text().split("\n")[1].startswith("fft-size,1024.0,")

    @pytest.mark.parametrize("sweep_flags,simulate_flags", [
        (["--param", "level-diff", "--values", "3"], ["--level-diff", "3"]),
        (["--param", "mic-spacing", "--values", "0.03"], ["--sido", "--spacing", "0.03"]),
        (["--algo", "sbw-simo", "--param", "subbands", "--values", "8"], ["--sido"]),
    ], ids=["siso", "mic-spacing", "sbw-simo"])
    def test_sweep_scene_is_the_simulated_scene(self, sweep_flags, simulate_flags, tmp_path,
                                                monkeypatch):
        cancelled = []

        def recording(canceller):
            def wrapper(*args, **kwargs):
                cancelled.append([a.samples for a in args if isinstance(a, AudioBuffer)])
                return canceller(*args, **kwargs)
            return wrapper

        for name in ("sbw_cancel", "sbw_simo_cancel"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        scene_flags = ["--duration", "0.5", "--kappa", "7", "--solo-angle", "30"]
        code = run_cli(
            "sweep", *sweep_flags, "--num-scenes", "2", "--seed", "5", *scene_flags,
            "--set", "fft_size=1024", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0 and len(cancelled) == 2
        for index, signals in enumerate(cancelled):
            out = tmp_path / f"scene{index}"
            assert run_cli(
                "simulate", "--seed", str(5 + index), *scene_flags, *simulate_flags,
                "--out-dir", str(out),
            ) == 0
            written = [ch.samples for ch in read_channels(out / "mixture.wav")]
            written.append(read_mono(out / "reference.wav").samples)
            # simulate writes float32 WAVs: the mixture channels, then the reference
            assert len(signals) == len(written)
            for got, want in zip(signals, written):
                assert np.float32(got).tobytes() == np.float32(want).tobytes()

    def test_bad_param_rejected(self, tmp_path):
        code = run_cli(
            "sweep", "--param", "warp", "--values", "1", "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == EXIT_BAD_ARGS


class TestDeterminism:
    def test_repeated_pipeline_byte_identical(self, tmp_path):
        outputs = []
        for label in ("a", "b"):
            scene = tmp_path / f"scene_{label}"
            est = tmp_path / f"est_{label}.wav"
            csv = tmp_path / f"m_{label}.csv"
            assert run_cli(
                "simulate", "--duration", "1.0", "--seed", "11",
                "--out-dir", str(scene),
            ) == 0
            assert run_cli(
                "cancel", "--algo", "sbw", "--set", "fft_size=1024",
                str(scene / "mixture.wav"), str(scene / "reference.wav"), str(est),
            ) == 0
            assert run_cli(
                "evaluate", str(est), str(scene / "reference_solo.wav"),
                "--csv", str(csv), "--fft-size", "1024", "--hop", "512",
            ) == 0
            outputs.append(
                (
                    (scene / "mixture.wav").read_bytes(),
                    (scene / "reference.wav").read_bytes(),
                    (scene / "reference_solo.wav").read_bytes(),
                    est.read_bytes(),
                    csv.read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
