import numpy as np
import pytest

from solocancel import AudioBuffer, read_mono, write_wav
from solocancel import cli
from solocancel.cli import (
    ALGORITHMS, EXIT_BAD_ARGS, EXIT_IO, EXIT_NUMERIC, build_algorithm_config, main,
)
from solocancel.scenes import read_kv


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


class TestBuildAlgorithmConfig:
    def test_paper_presets(self):
        anc = build_algorithm_config("anc", "paper-v", {})
        assert (anc.taps, anc.mu, anc.prewhiten) == (1023, 0.10, False)
        ancpw = build_algorithm_config("anc-pw", "paper-v", {})
        assert (ancpw.taps, ancpw.mu, ancpw.lp_order, ancpw.prewhiten) == (
            1023, 0.01, 15, True,
        )
        maw = build_algorithm_config("maw", "paper-v", {})
        assert (maw.taps, maw.block_size, maw.hop) == (1023, 16384, 64)
        mawss, extra = build_algorithm_config("maw-ss", "paper-v", {})
        assert (mawss.taps, mawss.block_size, mawss.hop) == (1023, 16384, 64)
        assert (extra["fft_size"], extra["fft_hop"], extra["p"]) == (4096, 2048, 2.0)
        sbw = build_algorithm_config("sbw", "paper-v", {})
        assert (sbw.fft_size, sbw.hop, sbw.num_bands) == (4096, 2048, 39)
        simo_cfg, geom, kappa = build_algorithm_config("sbw-simo", "paper-v", {})
        assert (simo_cfg.fft_size, simo_cfg.hop, simo_cfg.num_bands) == (4096, 2048, 39)
        assert geom["spacing"] == pytest.approx(0.0214)
        assert kappa is None

    def test_overrides_applied(self):
        cfg = build_algorithm_config("sbw", "none", {"fft_size": 1024, "p": 2.0})
        assert cfg.fft_size == 1024 and cfg.hop == 512 and cfg.p == 2.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            build_algorithm_config("sbw", "none", {"bogus": 1})

    def test_invalid_values_rejected_before_audio(self):
        with pytest.raises(ValueError):
            build_algorithm_config("maw", "none", {"taps": 4096, "block_size": 1024})
        with pytest.raises(ValueError):
            build_algorithm_config("sbw", "none", {"p": 0.0})


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

    def test_config_file_supplies_parameters(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("kappa=7\nlevel_diff=3.0\nduration=1.0\nseed=9\n")
        out = tmp_path / "from_cfg"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == 0
        manifest = read_kv(out / "scene.manifest")
        assert manifest["kappa"] == "7"
        assert manifest["level_diff_db"] == "3.0"

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

    def test_identical_files_hit_floors(self, scene_dir, capsys):
        ref = scene_dir / "reference_solo.wav"
        assert run_cli("evaluate", str(ref), str(ref)) == 0
        out = capsys.readouterr().out
        assert "-120.00" in out and "100.00" in out

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
        mixture = read_mono(scene_dir / "mixture.wav").samples
        mixture[100] = np.nan
        bad = tmp_path / "nan.wav"
        write_wav(bad, mixture, 44100, "float32")
        code = run_cli(
            "cancel", "--algo", "sbw", str(bad), str(scene_dir / "reference.wav"),
            str(tmp_path / "out.wav"),
        )
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
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
        # 2 values x 2 scenes x 2 metrics
        assert len(lines) == 1 + 8

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

    def test_thread_count_env_keeps_order(self, tmp_path, monkeypatch):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = [
            "sweep", "--param", "p-norm", "--values", "1,2",
            "--num-scenes", "2", "--duration", "1.0",
            "--set", "fft_size=1024",
        ]
        monkeypatch.setenv("SOLOCANCEL_THREADS", "1")
        assert run_cli(*args, "--out", str(serial)) == 0
        monkeypatch.setenv("SOLOCANCEL_THREADS", "4")
        assert run_cli(*args, "--out", str(parallel)) == 0
        assert serial.read_text() == parallel.read_text()

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
