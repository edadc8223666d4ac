"""Self-test of the benchmark: every workload at smoke size, untraced and traced.

    python3 perfbench/selftest.py

For each run it checks that the last line is the result object, that its
metrics are exactly those BENCHMARK.json declares with the declared units,
that no operation failed, that the per-canceller figures and the environment
are printed by name, and that each workload exercises the layers it is meant
to. Finally it checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-canceller lines each workload prints on an untraced run: name -> unit.
CANCELLER_LINES = {
    "long-take": {"rtf.sbw": "ratio", "rtf.sbw-simo": "ratio", "snrf_db.sbw": "dB", "snrf_db.sbw-simo": "dB"},
    "block-wiener": {"rtf.maw": "ratio", "rtf.maw-ss": "ratio", "rtf.maw-paper": "ratio",
                     "snrf_db.maw": "dB", "snrf_db.maw-ss": "dB"},
    "adaptive": {"rtf.anc": "ratio", "rtf.anc-pw": "ratio", "snrf_db.anc": "dB", "snrf_db.anc-pw": "dB"},
    "cli": {"cli_pipeline_s": "s", "cli.simulate_s": "s", "cli.cancel_s": "s", "cli.evaluate_s": "s",
            "cli.sweep_s": "s", "snrf_db.sbw": "dB"},
}

# Per-layer metrics that must be nonzero on a traced run of each workload.
EXERCISED = {
    "long-take": ["stft.calls", "stft.frames", "erb.make_partition.calls", "sbw.gains_s", "sbw.peak_alloc_mb",
                  "sbw.rectified_ratio", "wiener.spectral_subtract_s", "simo.estimate_delay.calls",
                  "simo.combine_s", "metrics.measure_s", "scenes.generate_s", "scenes.synth_s",
                  "cover.sbw_cancel", "cover.sbw_simo_cancel", "rtf.sbw", "rtf.sbw-simo", "cli.import_s"],
    "block-wiener": ["wiener.matched_accompaniment_s", "wiener.blocks", "wiener.block_wiener_ms",
                     "wiener.block_wiener_paper_ms", "wiener.filter_s", "cover.maw_ss_cancel", "rtf.maw",
                     "rtf.maw-ss", "rtf.maw-paper"],
    "adaptive": ["anc.cancel_s", "anc.us_per_sample", "anc.fit_whitener_s", "anc.refits", "rtf.anc", "rtf.anc-pw"],
    "cli": ["wavio.write_s", "wavio.read_s", "wavio.bytes", "cli.self_s", "cli.simulate_s", "cli.cancel_s",
            "cli.evaluate_s", "cli.sweep_s", "cli_pipeline_s", "scenes.synth_s", "metrics.snrf_s"],
}

# Per-layer metrics that must stay zero: the workload bypasses that layer.
BYPASSED = {
    "long-take": ["anc.cancel_s", "wiener.matched_accompaniment_s"],
    "block-wiener": ["anc.cancel_s", "simo.estimate_delay.calls"],
    "adaptive": ["stft.istft_s", "sbw.cancel_frames_s", "wiener.matched_accompaniment_s"],
    "cli": ["anc.cancel_s", "wiener.matched_accompaniment_s"],
}

ENV_KEYS = ("cpu", "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "git_commit", "seed",
            "audio_s_per_call")


def run(args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, problems: list[str]):
    where = f"{workload} --trace {trace}"
    proc = run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"])
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {proc.stderr[-500:]}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
    if trace:
        for name in EXERCISED[workload]:
            if not values.get(name):
                problems.append(f"{where}: {name} is 0; the workload should exercise it")
        for name in BYPASSED[workload]:
            if values.get(name):
                problems.append(f"{where}: {name} = {values[name]}; the workload should bypass it")
    else:
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) >= 4 and parts[0] == "metric":
                printed[parts[1]] = parts[3]
        for name, unit in CANCELLER_LINES[workload].items():
            if printed.get(name) != unit:
                problems.append(f"{where}: no line 'metric {name} <value> {unit}'")
        env_lines = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
        if not env_lines or any(k not in env_lines[0] for k in ENV_KEYS):
            problems.append(f"{where}: environment line missing or incomplete")


def check_refuses_without_source(problems: list[str]):
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run(["--workload", "long-take", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("ran without the package source: exit 0 or a result was printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, problems)
            print(f"checked {workload} --trace {trace}", flush=True)
    check_refuses_without_source(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
