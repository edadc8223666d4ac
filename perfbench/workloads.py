"""The four closed-loop workloads of the benchmark.

Each workload builds its inputs from the run's seed, warms up, and then runs
passes back to back: one caller, and the next call starts only when the
previous one has returned, which is how a take is cancelled offline. Every
call goes through ``Checker.call``, which times it and checks its output.

The seed draws the take (solo and accompaniment). The microphone response is
the acceptance scene's (seed 17) in every workload: SNRF moves by several dB
between microphone responses, so drawing it from the seed would bury any
quality change under the spread between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import solocancel as sc
import solocancel.cli
from calibrate import Speedometer
from tracer import Tracer, empty_aggregate, merge

FS = 44100
MIC_IR_SEED = 17
SIDO_LAYOUT = dict(spacing=0.0214, solo_angle_deg=21.3, accomp_angle_deg=90.0)
MAW_ACCEPT = dict(taps=511, block_size=8192, hop=2048, interpolate=False)
MAW_PAPER = dict(taps=1023, block_size=16384, hop=64, interpolate=True)
ANC = dict(taps=1023, mu=0.10)
ANC_PW = dict(taps=1023, mu=0.01, prewhiten=True)
SUBPROCESS_TIMEOUT_S = 60

# Input sizes. "full" is what the benchmark measures; "smoke" runs every
# code path on tiny inputs for the self-test.
SIZES = {
    "full": dict(
        setup_reps=3, long_take_s=60.0, take_warm_s=5.0, scene_s=20.0, maw_s=0.5, maw_quality_s=1.0,
        paper_s=192 / FS, anc_s=1.0, anc_quality_s=4.0, warm_s=0.2, cli_take_s=10.0, sweep_values="13,26,39",
        sweep_scenes=1, sweep_s=5.0, block_reps=3,
    ),
    "smoke": dict(
        setup_reps=1, long_take_s=3.0, take_warm_s=1.0, scene_s=2.0, maw_s=0.2, maw_quality_s=0.4,
        paper_s=64 / FS, anc_s=0.4, anc_quality_s=0.8, warm_s=0.2, cli_take_s=1.0, sweep_values="13,39",
        sweep_scenes=1, sweep_s=1.0, block_reps=1,
    ),
}


class CheckError(Exception):
    """An operation returned, but its output is wrong."""


class Checker:
    """Counts operations and failures; the first output of a key is the oracle.

    An operation fails when it raises, when its output does not validate, or
    when its digest differs from the first digest recorded under the same key
    in this run (seeded runs are byte-deterministic).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        #: The tracer of a traced pass; checks run with it paused.
        self.tracer: Tracer | None = None

    def call(self, key, fn, validate=None):
        """Time ``fn()``; return ``(value, seconds)``, value None on failure."""
        self.attempted += 1
        start = perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            seconds = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self._fail(key, f"raised {type(exc).__name__}: {exc}")
            return None, seconds
        seconds = perf_counter() - start
        if validate is not None:
            try:
                with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                    digest = validate(value)
            except CheckError as exc:
                self._fail(key, str(exc))
                return None, seconds
            if self.digests.setdefault(key, digest) != digest:
                self._fail(key, "output differs from the first pass of this run")
                return None, seconds
        return value, seconds

    def _fail(self, key, why):
        self.failed += 1
        print(f"FAILED {key}: {why}", file=sys.stderr)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def expect_audio(length: int):
    def validate(buf):
        if not isinstance(buf, sc.AudioBuffer):
            raise CheckError(f"returned {type(buf).__name__}, not AudioBuffer")
        if len(buf) != length:
            raise CheckError(f"length {len(buf)}, expected {length}")
        if buf.sample_rate != FS:
            raise CheckError(f"sample rate {buf.sample_rate}, expected {FS}")
        if not np.all(np.isfinite(buf.samples)):
            raise CheckError("non-finite samples")
        return _digest(buf.samples)

    return validate


def expect_report(floor_db: float):
    """A finite report whose SNRF beats the unprocessed mixture's."""

    def validate(report):
        if not (math.isfinite(report.snrf_db) and math.isfinite(report.rmsd_db)):
            raise CheckError("non-finite RMSD or SNRF")
        if report.snrf_db <= floor_db:
            raise CheckError(
                f"SNRF {report.snrf_db:.3f} dB does not beat the mixture's {floor_db:.3f} dB"
            )
        return repr((report.rmsd_db, report.snrf_db))

    return validate


def expect_scene(scene):
    parts = [scene.mixture, scene.reference, scene.reference_solo]
    if scene.mixture2 is not None:
        parts.append(scene.mixture2)
    return _digest(*(p.samples for p in parts))


def excerpt(buf, seconds: float):
    return sc.AudioBuffer(buf.samples[: max(1, int(round(seconds * FS)))].copy(), FS)


def build_scene(seconds: float, seed: int, sido: bool):
    cfg = sc.SceneConfig(
        solo=sc.noise_plus_tones(seconds, FS, seed=seed),
        accompaniment_reference=sc.broadband_accompaniment(seconds, FS, seed=seed),
        mic_ir=sc.make_mic_ir(13.7, 606, seed=MIC_IR_SEED),
        channel_delay=32,
        level_diff_db=6.02,
        sido=sc.SidoLayout(**SIDO_LAYOUT) if sido else None,
    )
    return sc.synth_sido(cfg) if sido else sc.synth_siso(cfg)


class Op:
    """One timed call of a pass: a canceller, or a CLI command."""

    def __init__(self, name, fn, audio_s, validate, truth=None, floor_db=None):
        self.name = name
        self.fn = fn
        self.audio_s = audio_s
        self.validate = validate
        self.truth = truth
        self.floor_db = floor_db


class Workload:
    """Set-up, warm-up and passes; subclasses define the inputs and the ops."""

    name = ""
    #: Calibration kernels (calibrate.KERNELS) of the same kind of work as
    #: the workload's hot path.
    kernels: tuple[str, ...] = ()

    def __init__(self, seed: int, size: dict, checker: Checker, root: Path):
        self.seed = seed
        self.size = size
        self.checker = checker
        self.root = root
        self.traced_setup = empty_aggregate()
        self.speedometer = Speedometer(self.kernels)

    # -- set-up ------------------------------------------------------------
    def build(self):
        """Make the inputs; returns what ``expect_inputs`` digests."""
        return build_scene(self.size["scene_s"], self.seed, sido=False)

    def expect_inputs(self, built) -> str:
        return expect_scene(built)

    def setup(self, traced: bool = False) -> float:
        """Build the inputs ``setup_reps`` times; return the median build time.

        With ``traced``, one more build runs under the tracer, for the
        per-layer ``scenes`` and ``wavio`` numbers.
        """
        times = []
        for _ in range(self.size["setup_reps"]):
            built, seconds = self.checker.call("setup", self.build, self.expect_inputs)
            times.append(seconds)
            if built is not None:
                self.adopt(built)
        if traced:
            with Tracer() as tracer:
                self.checker.call("setup", self.build, self.expect_inputs)
            self.traced_setup = tracer.aggregate()
        return statistics.median(times)

    def adopt(self, built):
        self.inputs = built

    def warm_ops(self) -> list[Op]:
        return []

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> float:
        total = 0.0
        for op in self.warm_ops():
            _, seconds = self.checker.call(f"warm:{op.name}", op.fn, op.validate)
            total += seconds
        return total

    # -- passes ------------------------------------------------------------
    def run_pass(self) -> dict:
        """One closed-loop pass; returns wall and calibrated seconds per call,
        SNRF per canceller, and the pass time (the sum of the timed calls),
        wall and calibrated.

        The calibration kernels run before the first call and after each
        call, outside the timed calls; a call's calibrated time is its wall
        time divided by the mean speed factor of the kernels on either side.
        """
        seconds, calibrated, scores = {}, {}, {}
        speed = self.speedometer.sample()

        def timed(key, fn, validate):
            nonlocal speed
            value, seconds[key] = self.checker.call(key, fn, validate)
            after = self.speedometer.sample()
            calibrated[key] = seconds[key] / ((speed + after) / 2)
            speed = after
            return value

        for op in self.ops():
            value = timed(op.name, op.fn, op.validate)
            if value is not None and op.truth is not None:
                report = timed(f"measure:{op.name}", lambda: sc.measure(value, op.truth), expect_report(op.floor_db))
                if report is not None:
                    scores[op.name] = (report.snrf_db, op.floor_db)
        return {
            "seconds": seconds,
            "calibrated": calibrated,
            "scores": scores,
            "pass_s": sum(seconds.values()),
            "pass_cal_s": sum(calibrated.values()),
        }

    def quality_ops(self) -> list[Op]:
        """Calls scored once after the timed passes; none by default.

        A workload whose timed calls are short excerpts scores its cancellers
        here on a longer one: on a short excerpt the SNRF gain depends on the
        seed's material more than on the canceller.
        """
        return []

    def score_quality(self) -> dict:
        """SNRF and the mixture's SNRF per canceller of ``quality_ops``."""
        scores = {}
        for op in self.quality_ops():
            value, _ = self.checker.call(f"quality:{op.name}", op.fn, op.validate)
            if value is not None:
                report, _ = self.checker.call(
                    f"quality-measure:{op.name}", lambda: sc.measure(value, op.truth), expect_report(op.floor_db)
                )
                if report is not None:
                    scores[op.name] = (report.snrf_db, op.floor_db)
        return scores

    def audio_seconds(self) -> dict:
        """Audio processed by each RTF-timed call of a pass."""
        return {op.name: op.audio_s for op in self.ops()}

    def extras(self) -> dict:
        """Per-layer numbers measured outside the passes (trace runs only)."""
        return {}

    def close(self):
        pass


class LongTake(Workload):
    """Two-microphone take; sbw and sbw-simo, each scored with measure."""

    name = "long-take"
    kernels = ("fft",)

    def build(self):
        return build_scene(self.size["long_take_s"], self.seed, sido=True)

    def adopt(self, scene):
        self.inputs = scene
        self.geometry = sc.ArrayGeometry(spacing=SIDO_LAYOUT["spacing"], f_max=8000.0, sample_rate=FS)
        self.floor_db = sc.snrf(scene.mixture, scene.reference_solo)
        warm = self.size["take_warm_s"]
        self.warm = [excerpt(b, warm) for b in (scene.mixture, scene.mixture2, scene.reference)]

    def _ops(self, m1, m2, ref, truth):
        n = len(m1)
        return [
            Op("sbw", lambda: sc.sbw_cancel(m1, ref), n / FS, expect_audio(n), truth, self.floor_db),
            Op(
                "sbw-simo",
                lambda: sc.sbw_simo_cancel(m1, m2, ref, None, self.geometry),
                n / FS, expect_audio(n), truth, self.floor_db,
            ),
        ]

    def ops(self):
        s = self.inputs
        return self._ops(s.mixture, s.mixture2, s.reference, s.reference_solo)

    def warm_ops(self):
        return self._ops(*self.warm, None)

    def extras(self):
        s = self.inputs
        tracemalloc.start()
        try:
            sc.sbw_cancel(s.mixture, s.reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {
            "sbw.peak_alloc_mb": peak / 2**20,
            "true_kappa": sc.SidoLayout(**SIDO_LAYOUT).solo_delay_samples(FS),
        }


class BlockWiener(Workload):
    """maw and maw-ss at acceptance scale, maw at the paper-v preset."""

    name = "block-wiener"
    kernels = ("gemm",)

    def adopt(self, scene):
        self.inputs = scene
        cut = self.size["maw_s"]
        self.x, self.r, self.truth = (excerpt(b, cut) for b in (scene.mixture, scene.reference, scene.reference_solo))
        self.floor_db = sc.snrf(self.x, self.truth)
        cut = self.size["maw_quality_s"]
        self.long = [excerpt(b, cut) for b in (scene.mixture, scene.reference, scene.reference_solo)]
        self.long_floor_db = sc.snrf(self.long[0], self.long[2])
        self.xp, self.rp = (excerpt(b, self.size["paper_s"]) for b in (scene.mixture, scene.reference))
        self.warm = [excerpt(b, self.size["warm_s"]) for b in (scene.mixture, scene.reference)]
        self.warm_paper = [excerpt(b, 64 / FS) for b in (scene.mixture, scene.reference)]

    def _ops(self, x, r, xp, rp, truth, floor_db=None):
        accept = sc.BlockWienerConfig(**MAW_ACCEPT)
        paper = sc.BlockWienerConfig(**MAW_PAPER)
        ops = [
            Op("maw", lambda: sc.maw_cancel(x, r, accept), len(x) / FS, expect_audio(len(x)), truth, floor_db),
            Op("maw-ss", lambda: sc.maw_ss_cancel(x, r, accept), len(x) / FS, expect_audio(len(x)), truth, floor_db),
        ]
        if xp is not None:
            ops.append(Op("maw-paper", lambda: sc.maw_cancel(xp, rp, paper), len(xp) / FS, expect_audio(len(xp))))
        return ops

    def ops(self):
        return self._ops(self.x, self.r, self.xp, self.rp, self.truth, self.floor_db)

    def quality_ops(self):
        x, r, truth = self.long
        return self._ops(x, r, None, None, truth, self.long_floor_db)

    def warm_ops(self):
        return self._ops(*self.warm, *self.warm_paper, None)

    def extras(self):
        """Median time of one public ``block_wiener`` solve on scene data."""
        s = self.inputs
        out = {}
        for label, cfg in (("wiener.block_wiener_ms", MAW_ACCEPT), ("wiener.block_wiener_paper_ms", MAW_PAPER)):
            m, n = cfg["taps"], cfg["block_size"]
            start = min(FS, len(s.mixture) - n)
            window = sc.AudioBuffer(s.reference.samples[start - m + 1 : start + n], FS)
            block = sc.AudioBuffer(s.mixture.samples[start : start + n], FS)
            times = []
            for _ in range(self.size["block_reps"]):
                t0 = perf_counter()
                sc.block_wiener(window, block, m)
                times.append(perf_counter() - t0)
            out[label] = 1000.0 * statistics.median(times)
        return out


class Adaptive(Workload):
    """NLMS and pre-whitened NLMS at 1023 taps."""

    name = "adaptive"
    kernels = ("nlms",)

    def adopt(self, scene):
        self.inputs = scene
        cut = self.size["anc_s"]
        self.x, self.r, self.truth = (excerpt(b, cut) for b in (scene.mixture, scene.reference, scene.reference_solo))
        self.floor_db = sc.snrf(self.x, self.truth)
        cut = self.size["anc_quality_s"]
        self.long = [excerpt(b, cut) for b in (scene.mixture, scene.reference, scene.reference_solo)]
        self.long_floor_db = sc.snrf(self.long[0], self.long[2])
        self.warm = [excerpt(b, self.size["warm_s"]) for b in (scene.mixture, scene.reference)]

    def _ops(self, x, r, truth, floor_db=None):
        n = len(x)
        return [
            Op("anc", lambda: sc.anc_cancel(x, r, sc.AncConfig(**ANC)), n / FS, expect_audio(n), truth, floor_db),
            Op("anc-pw", lambda: sc.anc_cancel(x, r, sc.AncConfig(**ANC_PW)), n / FS, expect_audio(n), truth, floor_db),
        ]

    def ops(self):
        return self._ops(self.x, self.r, self.truth, self.floor_db)

    def quality_ops(self):
        return self._ops(*self.long, self.long_floor_db)

    def warm_ops(self):
        return self._ops(*self.warm, None)


class Cli(Workload):
    """The command line, ``solocancel.cli.main``: simulate, cancel, evaluate
    and sweep in sequence, each called as the console script calls it.

    The commands run in the benchmark's process. In a child process each
    would spend about 1.5 s importing the package, and that time swings by a
    third within seconds on a shared machine, which no affordable number of
    chains averages out; the import is measured by ``setup_s`` and by
    ``cli.import_s`` instead.
    """

    name = "cli"
    kernels = ("fft", "nlms")

    def __init__(self, seed, size, checker, root):
        super().__init__(seed, size, checker, root)
        self.work = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        os.environ.pop("SOLOCANCEL_THREADS", None)  # sweeps at their default of one thread
        self.floor_db = None

    def build(self):
        """The take the user brings: solo and accompaniment WAVs."""
        n = self.size["cli_take_s"]
        solo = sc.noise_plus_tones(n, FS, seed=self.seed)
        accomp = sc.broadband_accompaniment(n, FS, seed=self.seed)
        sc.write_wav(self.work / "solo.wav", solo.samples, FS)
        sc.write_wav(self.work / "accomp.wav", accomp.samples, FS)
        return [self.work / "solo.wav", self.work / "accomp.wav"]

    def expect_inputs(self, paths):
        return _file_digest(paths)

    def ops(self):
        w = self.work
        take = self.size["cli_take_s"]
        sweep_audio = len(self.size["sweep_values"].split(",")) * self.size["sweep_scenes"] * self.size["sweep_s"]
        scene = w / "scene"
        return [
            Op("simulate", self._command(
                ["simulate", "--solo", str(w / "solo.wav"), "--accomp", str(w / "accomp.wav"),
                 "--seed", str(MIC_IR_SEED), "--out-dir", str(scene)]),
               take, self._expect([scene / f for f in ("mixture.wav", "reference.wav", "reference_solo.wav")])),
            Op("cancel", self._command(
                ["cancel", "--algo", "sbw", str(scene / "mixture.wav"), str(scene / "reference.wav"),
                 str(w / "est.wav")]),
               take, self._expect([w / "est.wav"], self._check_estimate)),
            Op("evaluate", self._command(
                ["evaluate", str(w / "est.wav"), str(scene / "reference_solo.wav"), "--csv", str(w / "metrics.csv")]),
               take, self._expect([w / "metrics.csv"], self._check_scores)),
            Op("sweep", self._command(
                ["sweep", "--param", "subbands", "--values", self.size["sweep_values"],
                 "--num-scenes", str(self.size["sweep_scenes"]), "--duration", str(self.size["sweep_s"]),
                 "--seed", str(self.seed), "--out", str(w / "sweep.csv")]),
               sweep_audio, self._expect([w / "sweep.csv"])),
        ]

    @staticmethod
    def _command(argv):
        """Call the console script's entry point; returns (status, stderr)."""

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = sc.cli.main(argv)
            return status, err.getvalue()

        return run

    @staticmethod
    def _expect(outputs, check=None):
        def validate(result):
            status, err = result
            if status != 0:
                raise CheckError(f"exit {status}: {err.strip()[-300:]}")
            if check is not None:
                check()
            return _file_digest(outputs)

        return validate

    def _check_estimate(self):
        est = sc.read_mono(self.work / "est.wav")
        expected = int(round(self.size["cli_take_s"] * FS))
        if len(est) != expected or est.sample_rate != FS:
            raise CheckError(f"estimate has {len(est)} samples at {est.sample_rate} Hz, expected {expected} at {FS}")
        if not np.all(np.isfinite(est.samples)):
            raise CheckError("estimate has non-finite samples")

    def _check_scores(self):
        header, row = (self.work / "metrics.csv").read_text().splitlines()[:2]
        snrf = float(dict(zip(header.split(","), row.split(",")))["snrf_db"])
        if self.floor_db is None:
            scene = self.work / "scene"
            self.floor_db = sc.snrf(sc.read_mono(scene / "mixture.wav"), sc.read_mono(scene / "reference_solo.wav"))
        if not snrf > self.floor_db:
            raise CheckError(f"SNRF {snrf} dB does not beat the mixture's {self.floor_db:.3f} dB")
        self.score = (snrf, self.floor_db)

    def run_pass(self) -> dict:
        result = super().run_pass()
        if "evaluate" in result["seconds"] and hasattr(self, "score"):
            result["scores"]["sbw"] = self.score
        return result

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def measure_passes(workload, seconds: float) -> list[dict]:
    """Closed loop: run passes back to back until ``seconds`` have passed."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.run_pass())
        if perf_counter() - start >= seconds:
            return passes


def measure_alternating(workload, seconds: float):
    """Untraced and traced passes in turn until ``seconds`` have passed, so
    that a drift in machine speed reaches both halves alike. Returns the
    untraced passes, the traced passes and the traced aggregate."""
    plain, traced, agg = [], [], empty_aggregate()
    start = perf_counter()
    while True:
        plain.append(workload.run_pass())
        with Tracer() as tracer:
            workload.checker.tracer = tracer
            try:
                traced.append(workload.run_pass())
            finally:
                workload.checker.tracer = None
        merge(agg, tracer.aggregate())
        if perf_counter() - start >= seconds:
            return plain, traced, agg


def child_env(root: Path) -> dict:
    """Environment for a child interpreter: the checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def child_import_s(checker: Checker, root: Path):
    """Seconds a fresh interpreter spends in ``import solocancel``, timed
    inside the child so that interpreter start-up is left out; None on failure."""
    code = "import time; t = time.perf_counter(); import solocancel; print(time.perf_counter() - t)"
    proc, _ = checker.call(
        "setup:import",
        lambda: subprocess.run(
            [sys.executable, "-c", code], env=child_env(root), check=True, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        ),
    )
    return float(proc.stdout) if proc is not None else None


def import_probe(checker: Checker, root: Path):
    """Fresh-interpreter ``import solocancel``: its time, and its top imports."""
    seconds = child_import_s(checker, root)
    proc, _ = checker.call(
        "import-probe",
        lambda: subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import solocancel"],
            env=child_env(root), check=True, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        ),
    )
    if proc is not None:
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                rows.append((int(parts[1]), parts[2].rstrip()))
        rows.sort(reverse=True)
        for cumulative_us, name in rows[:8]:
            print(f"import {cumulative_us / 1e6:8.3f} s cumulative  {name.strip()}")
    return seconds


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (LongTake, BlockWiener, Adaptive, Cli)}
