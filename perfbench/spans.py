"""Spans around the module attributes through which each layer is called.

Used only in the traced run.  ``Tracer.install`` replaces each layer's
function, in its defining module and in every ``fourweight`` module that
imported it by name, with a wrapper that records a span (name, start, end,
parent span, run id) and the layer's work counts.  Spans stay in memory;
``job.py`` hands them to ``run.py``, which writes them out when the run ends.

A layer whose function is missing (a refactor removed or renamed it) is
reported as absent with zero calls instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _filter_counts(args, result):
    code, a = args[0], args[1]
    n, k = code.n, code.k
    doubly_even = all(w % 4 == 0 for w in (n // 2 - a, n // 2, n // 2 + a))
    candidates = (1 << (n - 2 * k if doubly_even else n - k)) - 1
    return {"candidates": candidates, "survivors": len(result)}


def _orbit_counts(args, result):
    return {"in": len(args[1]), "out": len(result)}


def _leader_counts(args, result):
    code = args[0]
    syndromes = 1 << (code.n - code.k)
    # one uint8 read, one shifted read and one write per syndrome and column
    return {"syndromes": syndromes, "bytes_computed": 3 * syndromes * code.n}


def _maximal_counts(args, result):
    return {"fast": int(result.path == "fast")}


def _build_counts(args, result):
    return {"matrices": len(result)}


def _verify_counts(args, result):
    m = len(args[0])
    return {"pairs": m * (m - 1) // 2}


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    attr: str  # "name" or "Class.method" in the defining module
    counts: Callable[[tuple, object], dict] | None = None  # work counts of one call


LAYERS = (
    Layer("cover.filter", "fourweight.cover", "valid_extension_vectors", _filter_counts),
    Layer("classify.orbit", "fourweight.classify", "_orbit_reduce", _orbit_counts),
    Layer("canonical.digest", "fourweight.canonical", "invariant_digest"),
    Layer("canonical.form", "fourweight.canonical", "canonical_form"),
    Layer("canonical.autgens", "fourweight.canonical", "automorphism_generators"),
    Layer("cover.leader", "fourweight.cover", "leader_profile", _leader_counts),
    Layer("cover.maximal", "fourweight.cover", "is_maximal", _maximal_counts),
    Layer("weighing.build", "fourweight.weighing", "build_quwm_set", _build_counts),
    Layer("weighing.verify", "fourweight.weighing", "QuwmSet.verify", _verify_counts),
    Layer("catalog.load", "fourweight.catalog", "load_code"),
    Layer("conditions.check", "fourweight.conditions", "check_conditions"),
)

#: Counters summed per layer, beside calls and self time.
COUNTERS = {
    "cover.filter": ("candidates", "survivors"),
    "classify.orbit": ("in", "out"),
    "canonical.form": ("searches",),
    "cover.leader": ("syndromes", "bytes_computed"),
    "cover.maximal": ("fast",),
    "weighing.build": ("matrices",),
    "weighing.verify": ("pairs",),
}


def _search_misses() -> int | None:
    """Cache misses of the canonical search so far: one per search run."""
    canonicalize = getattr(sys.modules.get("fourweight.canonical"), "_canonicalize", None)
    info = getattr(canonicalize, "cache_info", None)
    return info().misses if info else None


@dataclass
class Tracer:
    run_id: str
    spans: list[dict] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _keys: set = field(default_factory=set)
    _undo: list[tuple] = field(default_factory=list)

    def install(self) -> None:
        for layer in LAYERS:
            try:
                owner = importlib.import_module(layer.module)
            except ModuleNotFoundError:
                owner = None
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(layer.name)
                continue
            wrapper = self._wrap(layer, original)
            targets = [owner] if path else [
                mod for name, mod in list(sys.modules.items())
                if name == "fourweight" or name.startswith("fourweight.")
            ]
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, name, original))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def _wrap(self, layer: Layer, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": layer.name, "run": self.run_id,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            misses = _search_misses() if layer.name == "canonical.form" else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if layer.counts is not None:
                span.update(layer.counts(args, result))
            if layer.name == "canonical.form":
                after = _search_misses()
                span["searches"] = after - misses if misses is not None else 0
                span["new"] = int(result.key not in self._keys)
                self._keys.add(result.key)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def summarize(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time and counts, plus the time no layer covers.

    A span's self time is its duration minus the durations of its child
    spans; calls are nested and single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = 0
        out[f"{layer.name}.s"] = 0.0
        for counter in COUNTERS.get(layer.name, ()):
            out[f"{layer.name}.{counter}"] = 0
    out["canonical.form.new"] = 0
    top = 0.0
    for span, children in zip(spans, child_time):
        name = span["name"]
        duration = span["end"] - span["start"]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += duration - children
        for counter in COUNTERS.get(name, ()):
            out[f"{name}.{counter}"] += span[counter]
        out["canonical.form.new"] += span.get("new", 0)
        if span["parent"] is None:
            top += duration

    def ratio(num: str, den: str) -> float:
        return out[num] / out[den] if out[den] else 0.0

    out["cover.filter.pass_ratio"] = ratio("cover.filter.survivors", "cover.filter.candidates")
    out["classify.orbit.keep_ratio"] = ratio("classify.orbit.out", "classify.orbit.in")
    out["canonical.form.class_yield"] = ratio("canonical.form.new", "canonical.form.calls")
    out["cover.maximal.fast_ratio"] = ratio("cover.maximal.fast", "cover.maximal.calls")
    del out["canonical.form.new"], out["cover.maximal.fast"]
    out["other.s"] = wall_s - top
    return out
