"""Command-line front end: scene simulation, cancellation, metrics, sweeps.

Exit codes: 0 success, 2 bad arguments, 3 I/O failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .anc import AncConfig, anc_cancel
from .audio import AudioBuffer, _check_counts, _check_reals, require_matched
from .errors import NoSignalError, SolverError
from .metrics import measure, rtf
from .sbw import SbwConfig, sbw_cancel
from .scenes import (
    SceneConfig, SidoLayout, broadband_accompaniment, make_mic_ir, noise_plus_tones, read_kv,
    synth_sido, synth_siso, write_kv,
)
from .simo import SPEED_OF_SOUND, ArrayGeometry, delay_from_angle, sbw_simo_cancel
from .wavio import read_channels, read_mono, write_wav
from .wiener import BlockWienerConfig, MawSsConfig, maw_cancel, maw_ss_cancel

EXIT_BAD_ARGS = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

EVALUATE_CSV_COLUMNS = ("rmsd_db", "snrf_db", "rtf", "block_size", "segments", "num_bands")
SWEEP_CSV_COLUMNS = (
    "param", "value", "scene", "algorithm", "metric", "measurement", "median", "q25", "q75",
)


def _integer(key: str, value) -> int:
    """``value`` of setting ``key`` as an int: an integral number, else ValueError naming it."""
    whole_float = isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or whole_float):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _boolean(key: str, value) -> bool:
    """``value`` of setting ``key`` as a bool: true, false, 0 or 1, else ValueError naming it."""
    if not isinstance(value, numbers.Integral) or value not in (0, 1):
        raise ValueError(f"{key} must be true, false, 0 or 1, got {value!r}")
    return bool(value)


def _real(key: str, value) -> float:
    """``value`` of setting ``key`` as a float: a number in its range, else ValueError naming it."""
    try:
        if isinstance(value, numbers.Real):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{key} must be a number, got {value!r}")


#: The scene flags, by argparse destination: (flag, kind, default, help). The kind, a ``--set``
#: rule or ``None`` for a path, types the flag and checks a swept value and a ``simulate
#: --config`` value. ``simulate``'s manifest holds the ``_SCENE`` values, then the file names,
#: then for two microphones the ``_ARRAY`` values; the take's flags give its samples.
_SCENE = {
    "kappa": ("--kappa", _integer, 32, "channel delay, samples (default %(default)s)"),
    "level_diff_db": ("--level-diff", _real, 6.02,
                      "recorded accompaniment minus solo RMS, dB (default %(default)s)"),
    "gain": ("--gain", _real, None, "explicit accompaniment gain (overrides --level-diff)"),
    "ir_length": ("--ir-length", _integer, 606, None),
    "rt_ms": ("--rt-ms", _real, 13.7, None),
    "seed": ("--seed", _integer, 0, None),
    "sido": ("--sido", _boolean, False, "two-microphone scene"),
}
_ARRAY = {
    "spacing": ("--spacing", _real, 0.0214, None),
    "solo_angle": ("--solo-angle", _real, 21.3, None),
}
_SCENE_FLAGS = {
    "duration": ("--duration", _real, 5.0, "generated signal length, s"),
    "solo": ("--solo", None, None, "solo WAV (generated if omitted)"),
    "accomp": ("--accomp", None, None, "accompaniment WAV (generated if omitted)"),
    **_SCENE, **_ARRAY,
}

#: The ``--set`` kind of a config field's annotation, ``| None`` removed.
_KIND_OF = {"int": _integer, "float": _real, "bool": _boolean}


@dataclass(kw_only=True)
class _SimoConfig(SbwConfig):
    """``SbwConfig`` plus ``sbw_simo_cancel``'s array and fixed delay, checked without a rate."""

    spacing: float
    f_max: float = ArrayGeometry.f_max
    kappa: float | None = None

    def __post_init__(self):
        super().__post_init__()
        ArrayGeometry(self.spacing, self.f_max)
        if self.kappa is not None:
            _check_reals(kappa=self.kappa)


def _simo(*inputs, cfg: _SimoConfig):
    """``sbw_simo_cancel`` of two channels and the reference with ``cfg``'s array at their rate."""
    geometry = ArrayGeometry(cfg.spacing, cfg.f_max, inputs[0].sample_rate)
    return sbw_simo_cancel(*inputs, cfg, geometry, kappa=cfg.kappa)


@dataclass(frozen=True)
class _Algorithm:
    """One canceller: the module-level name of the function run as ``canceller(*channels,
    reference, cfg)``, looked up when it is built so that a rebound module attribute is what
    runs; the dataclass of ``cfg``; the defaults that differ from its fields'; paper-v's."""

    canceller: str
    config: type
    defaults: dict
    paper_v: dict

    def keys(self) -> dict:
        """Each ``--set`` key's (kind, default): the config's fields, of the kinds their
        annotations name."""
        return {f.name: (_KIND_OF.get(f.type.removesuffix(" | None")),
                         self.defaults.get(f.name, f.default)) for f in fields(self.config)}


_BLOCK = {"taps": 255, "block_size": 4096, "hop": 1024}
_BLOCK_PAPER = {"taps": 1023, "block_size": 16384, "hop": 64}

ALGORITHMS = {
    "anc": _Algorithm("anc_cancel", AncConfig, {"taps": 256, "mu": 0.1}, {"taps": 1023}),
    "anc-pw": _Algorithm(
        "anc_cancel", AncConfig, {"taps": 256, "mu": 0.01, "prewhiten": True}, {"taps": 1023}
    ),
    "maw": _Algorithm("maw_cancel", BlockWienerConfig, _BLOCK, _BLOCK_PAPER),
    "maw-ss": _Algorithm("maw_ss_cancel", MawSsConfig, _BLOCK, _BLOCK_PAPER),
    "sbw": _Algorithm("sbw_cancel", SbwConfig, {}, {}),
    "sbw-simo": _Algorithm("_simo", _SimoConfig, {"spacing": 0.0214}, {}),
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


def _entry(algorithm: str, keys) -> _Algorithm:
    """``algorithm``'s ``ALGORITHMS`` entry; ValueError on an unknown algorithm or key."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if unknown := sorted(set(keys) - set(ALGORITHMS[algorithm].keys())):
        raise ValueError(f"unknown parameter(s) for {algorithm}: {', '.join(unknown)}")
    return ALGORITHMS[algorithm]


def build_algorithm_config(algorithm: str, preset: str, overrides: dict):
    """Resolve an algorithm name + preset + overrides into its canceller, called as
    ``run(*channels, reference)``, with every setting checked by its kind and bound: a
    ValueError on an unknown key or a violated precondition comes before any audio is read."""
    entry = _entry(algorithm, overrides)
    given = {**(entry.paper_v if preset == "paper-v" else {}), **overrides}
    settings = {key: None if (value := given.get(key, default)) is None else kind(key, value)
                for key, (kind, default) in entry.keys().items()}
    return partial(globals()[entry.canceller], cfg=entry.config(**settings))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _inputs(args) -> tuple[AudioBuffer, AudioBuffer]:
    """The solo and accompaniment, read or generated from ``args.seed``, cut to one length."""
    solo = read_mono(args.solo) if args.solo else noise_plus_tones(args.duration, seed=args.seed)
    fs = solo.sample_rate
    accomp = (read_mono(args.accomp) if args.accomp
              else broadband_accompaniment(args.duration, fs, seed=args.seed))
    n = min(len(solo), len(accomp))
    inputs = AudioBuffer(solo.samples[:n], fs), AudioBuffer(accomp.samples[:n], accomp.sample_rate)
    require_matched(*inputs, "solo/accompaniment")  # here, so a sweep does not blame its value
    return inputs


def _scene(args, inputs) -> SceneConfig:
    """The scene that the parsed flags describe on ``inputs`` from ``_inputs``: two-microphone
    with ``args.sido``, its ``f_max`` lowered to the array's half-wavelength frequency when that
    is below 8 kHz, so a wider array is accepted; ``args.gain``, when given, replaces
    ``args.level_diff_db``."""
    solo, accomp = inputs
    layout = None
    if args.sido:
        _check_reals(0, True, spacing=args.spacing)
        f_max = min(8000.0, SPEED_OF_SOUND / (2.0 * args.spacing))
        layout = SidoLayout(args.spacing, args.solo_angle, f_max=f_max)
    return SceneConfig(
        solo, accomp, make_mic_ir(args.rt_ms, args.ir_length, args.seed, solo.sample_rate),
        channel_delay=args.kappa, accompaniment_gain=args.gain, sido=layout,
        level_diff_db=None if args.gain is not None else args.level_diff_db,
    )


def _synth(scene_cfg: SceneConfig):
    return synth_siso(scene_cfg) if scene_cfg.sido is None else synth_sido(scene_cfg)


def _cmd_simulate(args) -> int:
    scene = _synth(_scene(args, _inputs(args)))
    fs = scene.reference.sample_rate

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mixture = scene.mixture.samples
    if scene.is_sido:
        mixture = np.stack([mixture, scene.mixture2.samples], axis=1)
    write_wav(out_dir / "mixture.wav", mixture, fs, args.bit_depth)
    write_wav(out_dir / "reference.wav", scene.reference.samples, fs, args.bit_depth)
    write_wav(out_dir / "reference_solo.wav", scene.reference_solo.samples, fs, args.bit_depth)

    # the flags' values, with the gain and level difference the scene was made with
    values = {**vars(args), "gain": f"{scene.accompaniment_gain:.12g}", "sido": int(args.sido),
              "level_diff_db": "" if args.gain is not None else args.level_diff_db}
    manifest = {"sample_rate": fs, "samples": len(scene.reference)}
    manifest.update(("accompaniment_gain" if d == "gain" else d, values[d]) for d in _SCENE)
    manifest.update((name, f"{name}.wav") for name in ("mixture", "reference", "reference_solo"))
    if args.sido:
        manifest.update((d, values[d]) for d in _ARRAY)
    write_kv(out_dir / "scene.manifest", manifest)
    print(f"scene written to {out_dir}")
    return 0


def _cmd_cancel(args) -> int:
    run = build_algorithm_config(args.algorithm, args.preset, _parse_overrides(args.overrides))
    channels = read_channels(args.mixture)
    reference = read_mono(args.reference)
    if args.algorithm != "sbw-simo":
        channels = channels[:1]  # a one-channel canceller cancels the first channel
    elif len(channels) != 2:
        raise ValueError("sbw-simo needs a two-channel mixture WAV")

    start = time.perf_counter()
    estimate = run(*channels, reference)
    elapsed = time.perf_counter() - start
    ratio = rtf(elapsed, estimate.duration)  # an empty take fails here, before anything is written

    write_wav(args.output, estimate.samples, estimate.sample_rate, args.bit_depth)
    print(f"algorithm={args.algorithm} elapsed_s={elapsed:.3f} rtf={ratio:.4f}")
    if args.timing_out:
        write_kv(args.timing_out, {"elapsed_s": f"{elapsed:.6f}", "rtf": f"{ratio:.6f}"})
    return 0


def _cmd_evaluate(args) -> int:
    est = read_mono(args.estimate)
    ref = read_mono(args.reference_solo)
    report = measure(
        est, ref, block_size=args.block_size, num_bands=args.bands, fft_size=args.fft_size,
        hop=args.hop, elapsed=args.elapsed,
    )
    print(report.summary())
    if args.csv_path:
        figures = (report.rmsd_db, report.snrf_db, report.rtf)
        row = ["" if x is None else f"{x:.6f}" for x in figures]
        row += [str(report.params[key]) for key in EVALUATE_CSV_COLUMNS[3:]]
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(EVALUATE_CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
    return 0


#: Sweep parameters that set an algorithm parameter: name -> parameter.
_SWEEP_SETS = {
    "fft-size": "fft_size",
    "window-shape": "window_shape",
    "subbands": "num_bands",
    "wiener-exponent": "wiener_exponent",
    "p-norm": "p",
}
#: Sweep parameters that set a scene flag: name -> destination, whose kind checks the value.
#: For the others the scene depends on the scene index alone.
_SWEEP_FLAGS = {"level-diff": "level_diff_db", "delay-mismatch": "kappa", "mic-spacing": "spacing"}
#: Sweep parameters that run the two-microphone pipeline whatever the algorithm.
_SWEEP_TWO_MIC = ("mic-spacing", "angle-mismatch")
SWEEP_PARAMS = (*_SWEEP_SETS, *_SWEEP_FLAGS, "angle-mismatch")
#: ``sbw-simo`` parameters that ``--set`` cannot give a two-microphone sweep, and why.
_SWEEP_FIXED = {
    "spacing": "the array comes from --spacing",
    "f_max": "the array comes from --spacing",
    "kappa": "κ is swept with --param angle-mismatch",
}


def _sweep_point(args, overrides: dict, inputs, value):
    """The (SceneConfig, canceller) of the sweep point ``value`` on a scene's
    ``inputs``: ``args`` with the swept scene flag, or ``overrides`` with the swept ``--set``
    key, replaced, and so checked by its kind. A two-microphone canceller takes the scene's
    array; a mismatch angle must be a finite number."""
    point, overrides = argparse.Namespace(**vars(args)), dict(overrides)
    if dest := _SWEEP_FLAGS.get(args.param):
        setattr(point, dest, _SCENE_FLAGS[dest][1](dest, value))
    elif args.param in _SWEEP_SETS:
        overrides[_SWEEP_SETS[args.param]] = value
    scene_cfg = _scene(point, inputs)
    if layout := scene_cfg.sido:
        overrides.update(spacing=layout.spacing, f_max=layout.f_max)
        if args.param == "angle-mismatch":
            _check_reals(**{args.param: value})
            geometry = layout.geometry(scene_cfg.solo.sample_rate)
            overrides["kappa"] = delay_from_angle(layout.solo_angle_deg + value, geometry)
    return scene_cfg, build_algorithm_config(args.algorithm, args.preset, overrides)


def _cmd_sweep(args) -> int:
    overrides = _parse_overrides(args.overrides)
    values = [_parse_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values is required")
    _check_counts(**{"--num-scenes": args.num_scenes})
    args.sido = args.param in _SWEEP_TWO_MIC or args.algorithm == "sbw-simo"
    if args.sido:
        if args.algorithm not in ("sbw", "sbw-simo"):
            raise ValueError(f"{args.param} sweeps run the two-microphone pipeline")
        if fixed := [f"{key} ({why})" for key, why in _SWEEP_FIXED.items() if key in overrides]:
            raise ValueError(f"unknown parameter(s) for sbw-simo sweeps: {', '.join(fixed)}")
        args.algorithm = "sbw-simo"
    _entry(args.algorithm, overrides)  # an unknown --set key is no swept value's fault

    reports = {}
    for si in range(args.num_scenes):
        scene_args = argparse.Namespace(**{**vars(args), "seed": args.seed + si})
        inputs = _inputs(scene_args)
        points = []  # every point is built, and so checked, before the scene is synthesised
        for value in values:
            try:
                points.append(_sweep_point(scene_args, overrides, inputs, value))
            except ValueError as exc:
                raise ValueError(f"{args.param} {value}: {exc}") from exc
        for vi, (scene_cfg, run) in enumerate(points):
            if vi == 0 or args.param in _SWEEP_FLAGS:
                scene = _synth(scene_cfg)
            channels = [scene.mixture, scene.mixture2] if scene.is_sido else [scene.mixture]
            estimate = run(*channels, scene.reference)
            reports[vi, si] = measure(estimate, scene.reference_solo)

    rows = []
    for vi, value in enumerate(values):
        for metric in ("rmsd_db", "snrf_db"):
            samples = [getattr(reports[vi, si], metric) for si in range(args.num_scenes)]
            summary = [np.median(samples), *np.percentile(samples, [25, 75])]
            for si, sample in enumerate(samples):
                figures = ",".join(f"{x:.6f}" for x in (sample, *summary))
                rows.append(f"{args.param},{value},{si},{args.algorithm},{metric},{figures}\n")

    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n" + "".join(rows))
    print(f"sweep written to {args.output} ({len(rows)} rows)")
    return 0


def _scene_file(path) -> dict:
    """The parser defaults a ``simulate --config`` file sets, keyed by a scene flag's name or
    destination, each parsed as a ``--set`` value and checked by its kind (a ValueError naming
    the key)."""
    dests = {name: dest for dest, (flag, *_) in _SCENE_FLAGS.items()
             for name in (dest, flag[2:].replace("-", "_"))}
    out = {}
    for key, raw in read_kv(path).items():
        if key not in dests:
            raise ValueError(f"unknown scene parameter {key!r} in {path}")
        kind = _SCENE_FLAGS[dests[key]][1]
        out[dests[key]] = raw if kind is None else kind(key, _parse_value(raw))
    return out


def _add_scene_flags(p: argparse.ArgumentParser, omit=()):
    """The ``_SCENE_FLAGS``, typed by their kind, but the ``omit``ted ones, which keep their
    defaults."""
    for dest, (flag, kind, default, text) in _SCENE_FLAGS.items():
        if dest in omit:
            p.set_defaults(**{dest: default})
        elif kind is _boolean:
            p.add_argument(flag, dest=dest, action="store_true", help=text)
        else:
            p.add_argument(flag, dest=dest, type={_integer: int, _real: float}.get(kind),
                           default=default, help=text)


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
    ev.add_argument("--hop", type=int, help="STFT hop (default: half of --fft-size)")
    ev.add_argument("--bands", type=int, default=39)
    ev.set_defaults(handler=_cmd_evaluate)

    sw = sub.add_parser("sweep", help="sweep one parameter over a value list")
    sw.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sw.add_argument("--values", required=True, help="comma-separated value list")
    sw.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, default="sbw")
    sw.add_argument("--preset", choices=("paper-v", "none"), default="none")
    sw.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    sw.add_argument("--num-scenes", type=int, default=4)
    _add_scene_flags(sw, omit=("gain", "sido"))  # a sweep sets these itself
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
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, where it is handled
        return status
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except BrokenPipeError:  # the reader closed stdout (`| head`): not a failure
        with open(os.devnull, "wb") as devnull:  # so that the interpreter's last flush succeeds
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except (OSError, EOFError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, NoSignalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
