"""solocancel benchmark: real-time factor, quality and memory per workload.

    python3 perfbench/run.py --workload long-take --seed 17 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` alternates untraced passes with passes traced at the module
boundaries of the package, and reports the per-layer metrics and the
tracing overhead. ``--smoke`` shrinks every input so that all code paths run
in seconds (see selftest.py).

Every line before the last is for people: the environment, the per-canceller
figures, and the per-layer breakdown. The last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("long-take", "block-wiener", "adaptive", "cli")

END_TO_END = {
    "setup_s": "s",
    "rtf_cal": "ratio",
    "pass_cal_s": "s",
    "snrf_gain_db": "dB",
    "peak_rss_mb": "MB",
}

CANCELLERS = ("sbw", "sbw-simo", "maw", "maw-ss", "maw-paper", "anc", "anc-pw")
CLI_COMMANDS = ("simulate", "cancel", "evaluate", "sweep")
LAYERS = ("stft", "erb", "sbw", "wiener", "anc", "simo", "metrics", "scenes", "wavio", "cli")

PER_LAYER = {
    "stft.stft_s": "s", "stft.istft_s": "s", "stft.calls": "count", "stft.frames": "count",
    "erb.make_partition_s": "s", "erb.make_partition.calls": "count",
    "sbw.gains_s": "s", "sbw.cancel_frames_s": "s", "sbw.peak_alloc_mb": "MB",
    "sbw.rectified_ratio": "ratio",
    "wiener.matched_accompaniment_s": "s", "wiener.spectral_subtract_s": "s",
    "wiener.blocks": "count", "wiener.block_wiener_ms": "ms",
    "wiener.block_wiener_paper_ms": "ms", "wiener.filter_s": "s",
    "anc.cancel_s": "s", "anc.us_per_sample": "us", "anc.fit_whitener_s": "s",
    "anc.refits": "count",
    "simo.estimate_delay_s": "s", "simo.estimate_delay.calls": "count",
    "simo.delay_fail_ratio": "ratio", "simo.kappa_abs_err": "samples", "simo.combine_s": "s",
    "metrics.measure_s": "s", "metrics.snrf_s": "s", "metrics.rmsd_s": "s",
    "scenes.generate_s": "s", "scenes.synth_s": "s",
    "wavio.write_s": "s", "wavio.read_s": "s", "wavio.bytes": "bytes",
    "cli.import_s": "s", **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cover.sbw_cancel": "ratio", "cover.sbw_simo_cancel": "ratio", "cover.maw_ss_cancel": "ratio",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
    **{f"rtf.{c}": "ratio" for c in CANCELLERS},
    "cli_pipeline_s": "s",
}

# Parents whose traced children must cover their time; the remainder is the
# parent's own code, named here.
COVERED = {
    "cover.sbw_cancel": ("sbw.sbw_cancel", "input checks, config validation, output slicing"),
    "cover.sbw_simo_cancel": ("simo.sbw_simo_cancel", "delay-track smoothing and MRC rotation (simo.combine_s)"),
    "cover.maw_ss_cancel": ("wiener.maw_ss_cancel", "output slicing"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=17, help="draws the take (default 17, the acceptance scene)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread unless the caller chose otherwise.

    On a small shared machine, OpenBLAS's second thread makes the block
    Wiener solves both slower and noisier; the benchmark measures one
    single-threaded process. Must run before numpy is imported; child
    processes inherit it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def import_package():
    """Import solocancel from this checkout's src/; returns the seconds it took."""
    if not (SRC / "solocancel" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'solocancel'}; run from a solocancel checkout")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import solocancel

    seconds = perf_counter() - start
    if Path(solocancel.__file__).resolve().parent != (SRC / "solocancel").resolve():
        raise SystemExit(f"error: solocancel imported from {solocancel.__file__}, not {SRC}")
    return seconds


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(args, workload) -> dict:
    import numpy as np
    import scipy
    from calibrate import KERNELS

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "solocancel").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "sizes": "smoke" if args.smoke else "full",
        "audio_s_per_call": workload.audio_seconds(),
        "calibration_nominal_s": {name: KERNELS[name][2] for name in workload.kernels},
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail_note(values) -> str:
    """Sample count and the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    p = math.floor(100 * (n - 10) / n)
    return f"n={n}; p{p}={statistics.quantiles(values, n=100, method='inclusive')[p - 1]:.6g}"


def canceller_figures(workload, passes, key="seconds", quality=None) -> tuple[dict, dict, dict]:
    """Per call: median RTF and its samples, and SNRF.

    ``key`` "seconds" gives wall-time RTFs, "calibrated" calibrated ones.
    SNRF is that of the quality calls when the workload has them, else that
    of the passes (identical in every pass).
    """
    audio = workload.audio_seconds()
    samples = {name: [p[key][name] / audio[name] for p in passes if name in p[key]] for name in audio}
    rtf = {name: statistics.median(v) for name, v in samples.items() if v}
    snrf = dict(quality or {})
    if not snrf:
        for p in passes:
            for name, value in p["scores"].items():
                snrf.setdefault(name, value)
    return rtf, samples, snrf


def geomean(values):
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else None


def end_to_end(workload, passes, quality, setup_s) -> dict:
    rtf_cal, _, snrf = canceller_figures(workload, passes, "calibrated", quality)
    return {
        "setup_s": setup_s,
        "rtf_cal": geomean(rtf_cal.values()),
        "pass_cal_s": statistics.median(p["pass_cal_s"] for p in passes),
        "snrf_gain_db": statistics.fmean(est - mix for est, mix in snrf.values()) if snrf else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_canceller_lines(workload, passes, quality):
    """The per-canceller figures, by name and unit (people read these).

    The named figures are wall time; the calibrated value follows in brackets.
    """
    rtf, samples, snrf = canceller_figures(workload, passes, quality=quality)
    rtf_cal, _, _ = canceller_figures(workload, passes, "calibrated")
    factors = workload.speedometer.factors
    print(f"speed factor of the machine (kernels {', '.join(workload.kernels)}): median "
          f"{statistics.median(factors):.3f}, quartiles "
          f"{', '.join(f'{q:.3f}' for q in statistics.quantiles(factors, n=4))} over {len(factors)} samples")
    if workload.name != "cli":
        for name in rtf:
            print(f"metric rtf.{name} {rtf[name]:.6g} ratio ({tail_note(samples[name])}; calibrated {rtf_cal[name]:.6g})")
        on = f"on {workload.quality_ops()[0].audio_s:g} s, " if quality else ""
        for name, (est, mix) in snrf.items():
            print(f"metric snrf_db.{name} {est:.6f} dB ({on}mixture {mix:.6f} dB)")
    else:
        audio = workload.audio_seconds()
        pipeline = [p["pass_s"] for p in passes]
        print(f"metric cli_pipeline_s {statistics.median(pipeline):.6g} s ({tail_note(pipeline)}; calibrated "
              f"{statistics.median(p['pass_cal_s'] for p in passes):.6g})")
        for name in rtf:
            seconds = [v * audio[name] for v in samples[name]]
            print(f"metric cli.{name}_s {rtf[name] * audio[name]:.6g} s ({tail_note(seconds)}; calibrated "
                  f"{rtf_cal[name] * audio[name]:.6g})")
        for name, (est, mix) in snrf.items():
            print(f"metric snrf_db.{name} {est:.6f} dB (evaluate on the cancel output; mixture {mix:.6f} dB)")
    print(f"wall rtf {geomean(rtf.values()):.6g} ratio, pass_s {statistics.median(p['pass_s'] for p in passes):.6g} s "
          "(the calibrated figures are rtf_cal and pass_cal_s)")


def per_layer(workload, agg, plain, traced, extras, import_s) -> dict:
    """Per-layer metrics: one traced set-up plus the mean traced pass."""
    f, c = agg["funcs"], agg["counts"]

    def total(*names):
        return sum(f[n]["total"] for n in names if n in f)

    def calls(*names):
        return sum(f[n]["calls"] for n in names if n in f)

    m = {
        "stft.stft_s": total("stft.stft"),
        "stft.istft_s": total("stft.istft"),
        "stft.calls": calls("stft.stft", "stft.istft"),
        "stft.frames": c.get("stft.frames", 0),
        "erb.make_partition_s": total("erb.make_partition"),
        "erb.make_partition.calls": calls("erb.make_partition"),
        "sbw.gains_s": total("sbw.subband_gains_frames"),
        "sbw.cancel_frames_s": total("sbw.cancel_frames"),
        "sbw.peak_alloc_mb": extras.get("sbw.peak_alloc_mb", 0.0),
        "sbw.rectified_ratio": c["sbw.bins_zeroed"] / c["sbw.bins"] if c.get("sbw.bins") else 0.0,
        "wiener.matched_accompaniment_s": total("wiener.matched_accompaniment"),
        "wiener.spectral_subtract_s": total("wiener.spectral_subtract"),
        "wiener.blocks": c.get("wiener.blocks", 0),
        "wiener.block_wiener_ms": extras.get("wiener.block_wiener_ms", 0.0),
        "wiener.block_wiener_paper_ms": extras.get("wiener.block_wiener_paper_ms", 0.0),
        "wiener.filter_s": f.get("wiener.matched_accompaniment", {}).get("self", 0.0),
        "anc.cancel_s": total("anc.anc_cancel"),
        "anc.us_per_sample": 1e6 * total("anc.anc_cancel") / c["anc.samples"] if c.get("anc.samples") else 0.0,
        "anc.fit_whitener_s": total("anc.fit_whitener"),
        "anc.refits": calls("anc.fit_whitener"),
        "simo.estimate_delay_s": total("simo.estimate_delay"),
        "simo.estimate_delay.calls": calls("simo.estimate_delay"),
        "simo.combine_s": f.get("simo.sbw_simo_cancel", {}).get("self", 0.0),
        "metrics.measure_s": total("metrics.measure"),
        "metrics.snrf_s": total("metrics.snrf"),
        "metrics.rmsd_s": total("metrics.rmsd"),
        "scenes.generate_s": total("scenes.noise_plus_tones", "scenes.broadband_accompaniment"),
        "scenes.synth_s": total("scenes.synth_siso", "scenes.synth_sido"),
        "wavio.write_s": total("wavio.write_wav"),
        "wavio.read_s": total("wavio.read_wav"),
        "wavio.bytes": c.get("wavio.bytes", 0),
        "cli.import_s": import_s,
    }
    delay_calls = calls("simo.estimate_delay")
    fails = f.get("simo.estimate_delay", {}).get("errors", {}).get("NoSignalError", 0)
    m["simo.delay_fail_ratio"] = fails / delay_calls if delay_calls else 0.0
    true_kappa = extras.get("true_kappa")
    m["simo.kappa_abs_err"] = (
        statistics.median(abs(k - true_kappa) for k in agg["kappas"]) if agg["kappas"] and true_kappa is not None else 0.0
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(e["self"] for name, e in f.items() if name.split(".")[0] == layer)
    for metric, (parent, _) in COVERED.items():
        entry = f.get(parent)
        m[metric] = entry["children"] / entry["total"] if entry and entry["total"] > 0 else 0.0

    plain_pass = statistics.median(p["pass_s"] for p in plain)
    traced_pass = statistics.median(p["pass_s"] for p in traced)
    m["trace.overhead_s"] = traced_pass - plain_pass
    m["trace.overhead_pct"] = 100.0 * (traced_pass - plain_pass) / plain_pass

    rtf, _, _ = canceller_figures(workload, plain)
    for name in CANCELLERS:
        m[f"rtf.{name}"] = rtf.get(name, 0.0) if workload.name != "cli" else 0.0
    audio = workload.audio_seconds()
    for name in CLI_COMMANDS:
        m[f"cli.{name}_s"] = rtf[name] * audio[name] if workload.name == "cli" and name in rtf else 0.0
    m["cli_pipeline_s"] = plain_pass if workload.name == "cli" else 0.0
    return m


def scale(agg: dict, k: float) -> dict:
    """The aggregate with every time and count multiplied by ``k``."""
    funcs = {
        name: {**e, "calls": e["calls"] * k, "total": e["total"] * k, "self": e["self"] * k,
               "children": e["children"] * k,
               "errors": {err: n * k for err, n in e["errors"].items()}}
        for name, e in agg["funcs"].items()
    }
    return {
        "funcs": funcs,
        "counts": {key: v * k for key, v in agg["counts"].items()},
        "kappas": list(agg["kappas"]),
    }


def print_breakdown(agg):
    """Per-function totals and self times, and the coverage of three parents."""
    for name, e in sorted(agg["funcs"].items(), key=lambda kv: -kv[1]["self"]):
        print(f"span {name:34s} calls {e['calls']:9.2f} total {e['total']:9.4f} s self {e['self']:9.4f} s")
    for metric, (parent, remainder) in COVERED.items():
        e = agg["funcs"].get(parent)
        if e and e["total"] > 0:
            print(
                f"cover {parent}: children {e['children']:.4f} s of {e['total']:.4f} s "
                f"({100 * e['children'] / e['total']:.1f} %); remainder {e['self']:.4f} s is "
                f"{parent}'s own code: {remainder}"
            )


def run(args) -> dict:
    pin_blas_threads()
    import_s = import_package()
    from tracer import merge
    from workloads import (
        SIZES, WORKLOADS, Checker, child_import_s, import_probe, measure_alternating, measure_passes,
    )

    size = SIZES["smoke" if args.smoke else "full"]
    checker = Checker()
    workload = WORKLOADS[args.workload](args.seed, size, checker, ROOT)
    try:
        # The import is timed in this process and again in fresh interpreters,
        # so that it too enters set-up time as a median of ``setup_reps`` timings.
        imports = [import_s] + [child_import_s(checker, ROOT) for _ in range(size["setup_reps"] - 1)]
        import_med = statistics.median(t for t in imports if t is not None)
        build_s = workload.setup(traced=bool(args.trace))
        warm_s = workload.warm_up()
        setup_s = import_med + build_s + warm_s
        print("env " + json.dumps(environment(args, workload), sort_keys=True))
        print(f"setup import {import_med:.4f} s (median of {', '.join(f'{t:.4f}' for t in imports if t is not None)}), "
              f"input build {build_s:.4f} s (median of {size['setup_reps']}), warm-up {warm_s:.4f} s")
        if not args.trace:
            passes = measure_passes(workload, args.seconds)
            quality = workload.score_quality()
            print_canceller_lines(workload, passes, quality)
            metrics = {
                name: (value, END_TO_END[name]) for name, value in end_to_end(workload, passes, quality, setup_s).items()
            }
        else:
            plain, traced, pass_agg = measure_alternating(workload, args.seconds)
            agg = merge(scale(pass_agg, 1.0 / len(traced)), workload.traced_setup)
            print(f"trace: {len(plain)} untraced and {len(traced)} traced passes, alternating; per-layer "
                  "figures are one traced set-up plus the mean traced pass")
            print_breakdown(agg)
            import_s_fresh = import_probe(checker, ROOT)
            values = per_layer(workload, agg, plain, traced, workload.extras(), import_s_fresh)
            metrics = {name: (values[name], PER_LAYER[name]) for name in PER_LAYER}
    finally:
        workload.close()
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}" if value is not None else f"metric {name} missing {unit}")
    return {
        "correct": checker.failed == 0 and all(v is not None for v, _ in metrics.values()),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
