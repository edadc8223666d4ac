"""Command-line front end: scene simulation, cancellation, metrics, sweeps.

Exit codes: 0 success, 2 bad arguments, 3 I/O failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .anc import AncConfig, anc_cancel
from .audio import AudioBuffer
from .erb import make_partition
from .errors import NoSignalError, SolverError
from .metrics import measure
from .sbw import SbwConfig, sbw_cancel
from .scenes import (
    SceneConfig, SidoLayout, broadband_accompaniment, make_mic_ir, noise_plus_tones, read_kv,
    synth_sido, synth_siso, write_kv,
)
from .simo import ArrayGeometry, delay_from_angle, sbw_simo_cancel
from .stft import _default_window
from .wavio import read_channels, read_mono, write_wav
from .wiener import BlockWienerConfig, maw_cancel, maw_ss_cancel

EXIT_BAD_ARGS = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

SWEEP_CSV_COLUMNS = (
    "param", "value", "scene", "algorithm", "metric", "measurement", "median", "q25", "q75",
)


def _check_p(p: float):
    if p <= 0:
        raise ValueError("p must be > 0")


def _anc_config(p: dict) -> AncConfig:
    return AncConfig(
        taps=int(p["taps"]), mu=float(p["mu"]), normalized=bool(p["normalized"]),
        prewhiten=bool(p["prewhiten"]), lp_order=int(p["lp_order"]),
        refresh_interval=int(p["refresh_interval"]),
    )


def _block_config(p: dict) -> BlockWienerConfig:
    return BlockWienerConfig(
        taps=int(p["taps"]), block_size=int(p["block_size"]), hop=int(p["hop"]),
        regularization=float(p["regularization"]), interpolate=bool(p["interpolate"]),
    )


def _maw_ss_config(p: dict):
    """Block settings plus the STFT subtraction settings, as a (cfg, extra) pair."""
    cfg = _block_config(p)
    extra = {
        "fft_size": int(p["fft_size"]), "fft_hop": int(p["fft_hop"]),
        "p": float(p["p"]), "window_shape": float(p["window_shape"]),
    }
    _check_p(extra["p"])
    return cfg, extra


def _sbw_config(p: dict) -> SbwConfig:
    shape = float(p["window_shape"])
    fft_size = int(p["fft_size"])
    cfg = SbwConfig(
        fft_size=fft_size, hop=int(fft_size // 2 if p["hop"] is None else p["hop"]),
        window=_default_window(fft_size, shape), num_bands=int(p["num_bands"]),
        cutoff=None if p["cutoff"] is None else float(p["cutoff"]), p=float(p["p"]),
        wiener_exponent=float(p["wiener_exponent"]), cross_cov=str(p["cross_cov"]),
    )
    _check_p(cfg.p)
    return cfg


def _simo_config(p: dict):
    """ERB-band settings, array geometry and fixed delay: a (cfg, geometry_kw, kappa) triple."""
    cfg = _sbw_config(p)
    geometry_kw = {"spacing": float(p["spacing"]), "f_max": float(p["f_max"])}
    return cfg, geometry_kw, None if p["kappa"] is None else float(p["kappa"])


def _run_anc(cfg, channels, reference):
    return anc_cancel(channels[0], reference, cfg)


def _run_maw_ss(cfg, channels, reference):
    block_cfg, extra = cfg
    return maw_ss_cancel(
        channels[0], reference, block_cfg,
        fft_size=extra["fft_size"], fft_hop=extra["fft_hop"],
        window=_default_window(extra["fft_size"], extra["window_shape"]), p=extra["p"],
    )


def _run_sbw_simo(cfg, channels, reference):
    sbw_cfg, geometry_kw, kappa = cfg
    if len(channels) != 2:
        raise ValueError("sbw-simo needs a two-channel mixture WAV")
    geometry = ArrayGeometry(sample_rate=channels[0].sample_rate, **geometry_kw)
    return sbw_simo_cancel(channels[0], channels[1], reference, sbw_cfg, geometry, kappa=kappa)


@dataclass(frozen=True)
class _Algorithm:
    """One canceller: its parameters with their defaults, its paper-v preset, its config builder
    and ``cancel(config, mixture_channels, reference)``. ``cancel`` calls the canceller through
    its module-level name, so a rebound module attribute is what runs."""

    defaults: dict
    paper_v: dict
    config: Callable[[dict], object]
    cancel: Callable


_ANC = {"taps": 256, "normalized": True, "lp_order": 15, "refresh_interval": 16384}
_BLOCK = {"taps": 255, "block_size": 4096, "hop": 1024, "regularization": 1e-8, "interpolate": True}
_ANC_PAPER = {"taps": 1023}
_BLOCK_PAPER = {"taps": 1023, "block_size": 16384, "hop": 64}
_SBW = {
    "window_shape": 4.0, "fft_size": 4096, "hop": None, "num_bands": 39, "cutoff": None,
    "p": 1.0, "wiener_exponent": 1.0, "cross_cov": "magnitude",
}

ALGORITHMS = {
    "anc": _Algorithm({**_ANC, "mu": 0.1, "prewhiten": False}, _ANC_PAPER, _anc_config, _run_anc),
    "anc-pw": _Algorithm(
        {**_ANC, "mu": 0.01, "prewhiten": True}, _ANC_PAPER, _anc_config, _run_anc
    ),
    "maw": _Algorithm(
        _BLOCK, _BLOCK_PAPER, _block_config, lambda cfg, ch, ref: maw_cancel(ch[0], ref, cfg)
    ),
    "maw-ss": _Algorithm(
        {**_BLOCK, "fft_size": 4096, "fft_hop": 2048, "p": 2.0, "window_shape": 4.0},
        _BLOCK_PAPER, _maw_ss_config, _run_maw_ss,
    ),
    "sbw": _Algorithm(_SBW, {}, _sbw_config, lambda cfg, ch, ref: sbw_cancel(ch[0], ref, cfg)),
    "sbw-simo": _Algorithm(
        {**_SBW, "spacing": 0.0214, "f_max": 8000.0, "kappa": None}, {},
        _simo_config, _run_sbw_simo,
    ),
}


def _parse_value(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text.strip()


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip().replace("-", "_")] = _parse_value(value)
    return out


def build_algorithm_config(algorithm: str, preset: str, overrides: dict):
    """Resolve an algorithm name + preset + overrides into a config object.

    Raises ValueError on unknown keys or precondition violations, before any
    audio has been read.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    entry = ALGORITHMS[algorithm]
    params = {**entry.defaults, **(entry.paper_v if preset == "paper-v" else {})}
    unknown = sorted(set(overrides) - set(params))
    cfg = entry.config({**params, **overrides})
    if unknown:
        raise ValueError(f"unknown parameter(s) for {algorithm}: {', '.join(unknown)}")
    return cfg


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _scene(args, seed: int, kappa: int, level_diff_db, gain=None, layout=None):
    """Read or generate the solo and accompaniment, cut them to a common
    length and synthesise a SISO scene, or a SIDO scene when ``layout`` is
    given. Both inputs must share a sample rate."""
    if args.solo_path:
        solo = read_mono(args.solo_path)
    else:
        solo = noise_plus_tones(args.duration, 44100, seed=seed)
    fs = solo.sample_rate
    if args.accomp_path:
        accomp = read_mono(args.accomp_path)
    else:
        accomp = broadband_accompaniment(args.duration, fs, seed=seed)
    n = min(len(solo), len(accomp))
    scene_cfg = SceneConfig(
        solo=AudioBuffer(solo.samples[:n], fs),
        accompaniment_reference=AudioBuffer(accomp.samples[:n], accomp.sample_rate),
        mic_ir=make_mic_ir(args.rt_ms, args.ir_length, seed=seed, sample_rate=fs),
        channel_delay=kappa, level_diff_db=level_diff_db, accompaniment_gain=gain, sido=layout,
    )
    return synth_siso(scene_cfg) if layout is None else synth_sido(scene_cfg)


def _cmd_simulate(args) -> int:
    layout = SidoLayout(args.spacing, args.solo_angle, args.accomp_angle) if args.sido else None
    level_diff = None if args.gain is not None else args.level_diff_db
    scene = _scene(args, args.seed, args.kappa, level_diff, args.gain, layout)
    fs = scene.reference.sample_rate

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mixture = scene.mixture.samples
    if scene.is_sido:
        mixture = np.stack([mixture, scene.mixture2.samples], axis=1)
    write_wav(out_dir / "mixture.wav", mixture, fs, args.bit_depth)
    write_wav(out_dir / "reference.wav", scene.reference.samples, fs, args.bit_depth)
    write_wav(out_dir / "reference_solo.wav", scene.reference_solo.samples, fs, args.bit_depth)

    manifest = {
        "sample_rate": fs, "samples": len(scene.reference), "kappa": args.kappa,
        "level_diff_db": "" if level_diff is None else level_diff,
        "accompaniment_gain": f"{scene.accompaniment_gain:.12g}",
        "ir_length": args.ir_length, "rt_ms": args.rt_ms, "seed": args.seed, "sido": int(args.sido),
        "mixture": "mixture.wav", "reference": "reference.wav",
        "reference_solo": "reference_solo.wav",
    }
    if args.sido:
        manifest.update(
            spacing=args.spacing, solo_angle=args.solo_angle, accomp_angle=args.accomp_angle
        )
    write_kv(out_dir / "scene.manifest", manifest)
    print(f"scene written to {out_dir}")
    return 0


def _cmd_cancel(args) -> int:
    algo_cfg = build_algorithm_config(args.algorithm, args.preset, _parse_overrides(args.overrides))
    channels = read_channels(args.mixture)
    reference = read_mono(args.reference)
    for ch in channels:
        if ch.sample_rate != reference.sample_rate:
            raise ValueError("mixture and reference sample rates differ")

    start = time.perf_counter()
    estimate = ALGORITHMS[args.algorithm].cancel(algo_cfg, channels, reference)
    elapsed = time.perf_counter() - start

    write_wav(args.output, estimate.samples, estimate.sample_rate, args.bit_depth)
    ratio = elapsed / estimate.duration
    print(f"algorithm={args.algorithm} elapsed_s={elapsed:.3f} rtf={ratio:.4f}")
    if args.timing_out:
        write_kv(args.timing_out, {"elapsed_s": f"{elapsed:.6f}", "rtf": f"{ratio:.6f}"})
    return 0


def _cmd_evaluate(args) -> int:
    est = read_mono(args.estimate)
    ref = read_mono(args.reference_solo)
    partition = make_partition(args.fft_size, est.sample_rate, None, args.bands)
    report = measure(
        est, ref, block_size=args.block_size, partition=partition, fft_size=args.fft_size,
        hop=args.hop, elapsed=args.elapsed,
    )
    print(report.summary())
    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return 0


#: Sweep parameters that set an algorithm parameter: name -> (parameter, type).
_SWEEP_SETS = {
    "fft-size": ("fft_size", int),
    "window-shape": ("window_shape", float),
    "subbands": ("num_bands", int),
    "wiener-exponent": ("wiener_exponent", float),
    "p-norm": ("p", float),
}
#: Sweep parameters that run the two-microphone pipeline whatever the algorithm.
_SWEEP_TWO_MIC = ("mic-spacing", "angle-mismatch")
#: Sweep parameters that change the scene; for the others it depends on the scene index alone.
_SWEEP_SCENE = ("level-diff", "delay-mismatch", "mic-spacing")
SWEEP_PARAMS = (*_SWEEP_SETS, "level-diff", "delay-mismatch", *_SWEEP_TWO_MIC)


def _two_mic(args) -> bool:
    return args.param in _SWEEP_TWO_MIC or args.algorithm == "sbw-simo"


def _sweep_scene(args, value, scene_index: int):
    """The scene of a sweep point; ``value`` is read only for the ``_SWEEP_SCENE`` parameters."""
    seed = args.seed + scene_index
    level_diff = float(value) if args.param == "level-diff" else args.level_diff_db
    kappa = int(value) if args.param == "delay-mismatch" else args.kappa
    if not _two_mic(args):
        return _scene(args, seed, kappa, level_diff)
    spacing = float(value) if args.param == "mic-spacing" else args.spacing
    layout = SidoLayout(
        spacing=spacing, solo_angle_deg=args.solo_angle, accomp_angle_deg=args.accomp_angle,
        f_max=min(8000.0, 343.0 / (2.0 * spacing)),
    )
    return _scene(args, seed, kappa, level_diff, layout=layout)


def _sweep_point(args, overrides: dict, value, scene):
    """One sweep measurement of ``value`` on ``scene``; returns a MetricsReport."""
    overrides = dict(overrides)
    if args.param in _SWEEP_SETS:
        key, kind = _SWEEP_SETS[args.param]
        overrides[key] = kind(value)
        if args.param == "fft-size":
            overrides["hop"] = int(value) // 2

    if not _two_mic(args):
        algo_cfg = build_algorithm_config(args.algorithm, args.preset, overrides)
        estimate = ALGORITHMS[args.algorithm].cancel(algo_cfg, [scene.mixture], scene.reference)
        return measure(estimate, scene.reference_solo)

    layout = scene.config.sido
    geometry = ArrayGeometry(
        spacing=layout.spacing, f_max=layout.f_max, sample_rate=scene.reference.sample_rate
    )
    sbw_cfg = build_algorithm_config("sbw", args.preset, overrides)
    kappa_est = None
    if args.param == "angle-mismatch":
        kappa_est = delay_from_angle(args.solo_angle + float(value), geometry)
    estimate = sbw_simo_cancel(
        scene.mixture, scene.mixture2, scene.reference, sbw_cfg, geometry, kappa=kappa_est
    )
    return measure(estimate, scene.reference_solo)


def _sweep_group(args, overrides: dict, values: list, group: list) -> list:
    """Reports of the (value index, scene index) points of ``group``, which share
    one scene: the scene of the first point."""
    first_value, scene_index = group[0]
    scene = _sweep_scene(args, values[first_value], scene_index)
    return [_sweep_point(args, overrides, values[vi], scene) for vi, _ in group]


def _cmd_sweep(args) -> int:
    overrides = _parse_overrides(args.overrides)
    values = [_parse_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values is required")
    if args.num_scenes < 1:
        raise ValueError("--num-scenes must be >= 1")
    if args.param in _SWEEP_TWO_MIC and args.algorithm not in ("sbw", "sbw-simo"):
        raise ValueError(f"{args.param} sweeps run the two-microphone pipeline")
    if _two_mic(args):
        spacings = values if args.param == "mic-spacing" else [args.spacing]
        if min(float(spacing) for spacing in spacings) <= 0:
            raise ValueError("microphone spacing must be > 0")
    # validate the base configuration (and overrides) up front
    build_algorithm_config("sbw" if _two_mic(args) else args.algorithm, args.preset, overrides)

    num_scenes = args.num_scenes
    if args.param in _SWEEP_SCENE:
        groups = [[(vi, si)] for vi in range(len(values)) for si in range(num_scenes)]
    else:
        groups = [[(vi, si) for vi in range(len(values))] for si in range(num_scenes)]
    threads = max(1, int(os.environ.get("SOLOCANCEL_THREADS", "1")))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # One worker runs in this thread: a worker thread's malloc arena adds a fifth to peak RSS.
        mapper = map if threads == 1 else pool.map
        results = list(mapper(lambda group: _sweep_group(args, overrides, values, group), groups))
    reports = dict(zip(chain(*groups), chain(*results)))

    label = "sbw-simo" if _two_mic(args) else args.algorithm
    rows = []
    for vi, value in enumerate(values):
        for metric in ("rmsd_db", "snrf_db"):
            samples = [getattr(reports[vi, si], metric) for si in range(num_scenes)]
            summary = [np.median(samples), *np.percentile(samples, [25, 75])]
            for si, sample in enumerate(samples):
                figures = ",".join(f"{x:.6f}" for x in (sample, *summary))
                rows.append(f"{args.param},{value},{si},{label},{metric},{figures}\n")

    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n" + "".join(rows))
    print(f"sweep written to {args.output} ({len(rows)} rows)")
    return 0


#: Keys a ``simulate --config`` file may set: key -> (argument, type).
_SCENE_FILE_KEYS = {
    "level_diff": ("level_diff_db", float), "level_diff_db": ("level_diff_db", float),
    "gain": ("gain", float), "kappa": ("kappa", int), "ir_length": ("ir_length", int),
    "rt_ms": ("rt_ms", float), "seed": ("seed", int), "duration": ("duration", float),
    "spacing": ("spacing", float), "solo_angle": ("solo_angle", float),
    "accomp_angle": ("accomp_angle", float),
    "sido": ("sido", lambda v: v.lower() in ("1", "true", "yes")),
    "solo": ("solo_path", str), "accomp": ("accomp_path", str),
}


def _scene_file(path) -> dict:
    """The parser defaults a ``simulate --config`` file sets."""
    out = {}
    for key, raw in read_kv(path).items():
        if key not in _SCENE_FILE_KEYS:
            raise ValueError(f"unknown scene parameter {key!r} in {path}")
        dest, kind = _SCENE_FILE_KEYS[key]
        out[dest] = kind(raw)
    return out


def _add_scene_flags(p: argparse.ArgumentParser):
    """The flags that describe a scene, shared by ``simulate`` and ``sweep``."""
    p.add_argument("--duration", type=float, default=5.0, help="generated signal length, s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solo", dest="solo_path", help="solo WAV (generated if omitted)")
    p.add_argument("--accomp", dest="accomp_path", help="accompaniment WAV (generated if omitted)")
    p.add_argument("--level-diff", dest="level_diff_db", type=float, default=6.02,
                   help="recorded accompaniment minus solo RMS, dB (default %(default)s)")
    p.add_argument("--kappa", type=int, default=32,
                   help="channel delay, samples (default %(default)s)")
    p.add_argument("--ir-length", type=int, default=606)
    p.add_argument("--rt-ms", type=float, default=13.7)
    p.add_argument("--spacing", type=float, default=0.0214)
    p.add_argument("--solo-angle", type=float, default=21.3)
    p.add_argument("--accomp-angle", type=float, default=90.0)


def _build_parser(scene_defaults: dict | None = None) -> argparse.ArgumentParser:
    """The argument parser; ``scene_defaults`` replace ``simulate``'s defaults."""
    parser = argparse.ArgumentParser(
        prog="solocancel",
        description="Accompaniment cancellation for live solo recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bit_depths = ("pcm16", "pcm24", "float32")

    sim = sub.add_parser("simulate", help="synthesize a test scene")
    _add_scene_flags(sim)
    sim.add_argument("--config", help="key=value file with scene parameters")
    sim.add_argument("--gain", type=float,
                     help="explicit accompaniment gain (overrides --level-diff)")
    sim.add_argument("--sido", action="store_true", help="two-microphone scene")
    sim.add_argument("--bit-depth", choices=bit_depths, default="float32")
    sim.add_argument("--out-dir", default=".")
    sim.set_defaults(handler=_cmd_simulate, **(scene_defaults or {}))

    can = sub.add_parser("cancel", help="run a canceller on mixture + reference")
    can.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, required=True)
    can.add_argument("--preset", choices=("paper-v", "none"), default="none")
    can.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                     help="algorithm parameter override (repeatable)")
    can.add_argument("--timing-out", help="write elapsed/RTF to this key=value file")
    can.add_argument("--bit-depth", choices=bit_depths, default="float32")
    can.add_argument("mixture")
    can.add_argument("reference")
    can.add_argument("output")
    can.set_defaults(handler=_cmd_cancel)

    ev = sub.add_parser("evaluate", help="compute RMSD/SNRF for an estimate")
    ev.add_argument("estimate")
    ev.add_argument("reference_solo")
    ev.add_argument("--csv", dest="csv_path")
    ev.add_argument("--elapsed", type=float, help="processing time for the RTF column, s")
    ev.add_argument("--block-size", type=int, default=1024)
    ev.add_argument("--fft-size", type=int, default=4096)
    ev.add_argument("--hop", type=int, default=2048)
    ev.add_argument("--bands", type=int, default=39)
    ev.set_defaults(handler=_cmd_evaluate)

    sw = sub.add_parser("sweep", help="sweep one parameter over a value list")
    sw.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sw.add_argument("--values", required=True, help="comma-separated value list")
    sw.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, default="sbw")
    sw.add_argument("--preset", choices=("paper-v", "none"), default="none")
    sw.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    sw.add_argument("--num-scenes", type=int, default=4)
    _add_scene_flags(sw)
    sw.add_argument("--out", dest="output", default="sweep.csv")
    sw.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Parse and run one invocation; returns the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate" and args.config:
            # file values become defaults, so explicit flags still win
            args = _build_parser(_scene_file(args.config)).parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (OSError, EOFError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, NoSignalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
