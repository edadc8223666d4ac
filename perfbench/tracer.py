"""Span tracing at the module boundaries of ``solocancel``, from outside the package.

``Tracer.install`` rebinds every public module-level function of the layer
modules to a timing wrapper, in every ``solocancel`` namespace that holds a
reference to it (``from .stft import stft`` makes ``solocancel.sbw.stft`` one
such reference). ``uninstall`` puts the originals back, so the untraced runs
execute the package exactly as shipped.

Spans stay in memory; ``aggregate`` folds them into per-function totals and
per-layer self times. The few diagnostics the benchmark reports beyond times
(frames, rectified bins, delay estimates, WAV bytes) are read by observers
after a call returns; their cost is excluded from every open span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: Modules of ``solocancel`` that count as layers. ``audio`` and ``errors``
#: hold data types and exception classes only.
LAYERS = ("stft", "erb", "sbw", "wiener", "anc", "simo", "metrics", "scenes", "wavio", "cli")

#: Private functions traced as well. ``matched_accompaniment`` solves every
#: block through ``_solve_block``; timing it separates the solves from the
#: FIR filtering (the self time of ``matched_accompaniment``).
PRIVATE = {"wiener": ("_solve_block",)}


class Span:
    __slots__ = ("name", "parent", "start", "end", "paused", "error")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.paused = 0.0
        self.error = None


# Observers run after the wrapped call returns; each reads its arguments or
# result and adds to the tracer's counters.


def _observe_stft(tracer, span, args, kwargs, result):
    tracer.counts["stft.frames"] += result.num_frames


def _observe_istft(tracer, span, args, kwargs, result):
    tracer.counts["stft.frames"] += args[0].num_frames


def _observe_spectral_subtract(tracer, span, args, kwargs, result):
    # Only the ERB-band path counts toward sbw.rectified_ratio.
    if span.parent is None or span.parent.name != "sbw.cancel_frames":
        return
    ax = np.abs(args[0])
    ay = np.abs(args[1])
    tracer.counts["sbw.bins"] += ax.size
    tracer.counts["sbw.bins_zeroed"] += int(np.count_nonzero((ay > 0.0) & (ax <= ay)))


def _observe_matched(tracer, span, args, kwargs, result):
    tracer.counts["wiener.blocks"] += -(-len(args[0]) // args[2].hop)


def _observe_anc(tracer, span, args, kwargs, result):
    tracer.counts["anc.samples"] += len(args[0])


def _observe_delay(tracer, span, args, kwargs, result):
    tracer.kappas.append(result.kappa)


def _observe_wav(tracer, span, args, kwargs, result):
    tracer.counts["wavio.bytes"] += os.path.getsize(args[0])


OBSERVERS = {
    "stft.stft": _observe_stft,
    "stft.istft": _observe_istft,
    "wiener.spectral_subtract": _observe_spectral_subtract,
    "wiener.matched_accompaniment": _observe_matched,
    "anc.anc_cancel": _observe_anc,
    "simo.estimate_delay": _observe_delay,
    "wavio.write_wav": _observe_wav,
    "wavio.read_wav": _observe_wav,
}


def _new_entry() -> dict:
    return {"calls": 0, "total": 0.0, "self": 0.0, "children": 0.0, "errors": {}}


class Tracer:
    """Collects spans for every call into a public function of a layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.kappas: list[float] = []
        self.active = True
        self._bindings: list[tuple] = []

    def _wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = Span(name, tracer.stack[-1] if tracer.stack else None)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            if observer is not None:
                begin = perf_counter()
                observer(tracer, span, args, kwargs, result)
                spent = perf_counter() - begin
                for open_span in tracer.stack:
                    open_span.paused += spent
            return result

        return traced

    def install(self):
        """Rebind the public functions of every layer, and ``PRIVATE``, to traced wrappers."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"solocancel.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "solocancel" and not mod_name.startswith("solocancel."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._bindings.append((module, attr, value))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside pass through untimed (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self):
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def aggregate(self) -> dict:
        """Per-function totals, self times and error counts, plus counters.

        A span's duration excludes observer time; its self time is that
        duration minus the durations of its direct children.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.end - span.start - span.paused
        funcs: dict[str, dict] = {}
        for span in self.spans:
            duration = span.end - span.start - span.paused
            entry = funcs.setdefault(span.name, _new_entry())
            entry["calls"] += 1
            entry["total"] += duration
            entry["children"] += child_time[id(span)]
            entry["self"] += duration - child_time[id(span)]
            if span.error is not None:
                entry["errors"][span.error] = entry["errors"].get(span.error, 0) + 1
        return {
            "funcs": funcs,
            "counts": dict(self.counts),
            "kappas": list(self.kappas),
        }


def merge(into: dict, other: dict) -> dict:
    """Add the aggregate ``other`` into ``into`` (both as from ``aggregate``)."""
    for name, entry in other["funcs"].items():
        mine = into["funcs"].setdefault(name, _new_entry())
        for key in ("calls", "total", "self", "children"):
            mine[key] += entry[key]
        for err, count in entry["errors"].items():
            mine["errors"][err] = mine["errors"].get(err, 0) + count
    for key, value in other["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    into["kappas"].extend(other["kappas"])
    return into


def empty_aggregate() -> dict:
    return {"funcs": {}, "counts": {}, "kappas": []}
