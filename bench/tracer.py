"""Span tracer for the benchmark's traced runs.

The tracer wraps named functions of the ``schubring`` modules from outside
the package, so ``src/`` carries no tracing code.  Modules import names
from each other (``from .gammaring import act_generator``), so a function
is replaced in every module that binds it; a method is replaced on its
class under every attribute that holds it (``__rmul__ = __mul__`` too).

Each call of a wrapped name is a span.  A span's self time is its duration
minus the time its child spans cover.  Calls are aggregated per
(name, parent name), which keeps memory bounded for the hot ring
operations; calls of the names in ``RECORDED`` are also kept as individual
spans (name, start, end, parent, request id) until the process exits.

A target whose module, class or function no longer exists is reported as
absent and its metrics are left out; the traced program still runs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped name.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside
    ``schubring.<module>``; ``name`` is the span name.  ``split`` maps the
    call's arguments to a suffix of the span name, ``count`` to counter
    increments (it also sees the result), and ``key`` to a hashable
    argument key whose distinct values are counted.
    """

    module: str
    attr: str
    name: str
    split: Callable | None = None
    count: Callable | None = None
    key: Callable | None = None


def _pairs(args, kwargs, result):
    a, b = args[0], args[1]
    other = len(b.terms) if hasattr(b, "terms") else 1
    return {"term_pairs": len(a.terms) * other, "terms_out": len(result.terms)}


def _rank_cells(args, kwargs, result):
    rows = args[0]
    return {
        "cells": sum(len(r) for r in rows),
        "nonzero": sum(1 for r in rows for v in r if v),
    }


def _cross_checked(args, kwargs, result):
    flag = args[1] if len(args) > 1 else kwargs.get("cross_check", True)
    return {"cross_checked": int(bool(flag))}


def _schubert_key(args, kwargs):
    w = args[0]
    flavor = args[1] if len(args) > 1 else kwargs.get("flavor")
    return (flavor or w.flavor, tuple(w.window))


def _out_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _in_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


TARGETS = (
    Target("polyring", "SparsePoly.__mul__", "polyring.SparsePoly.mul", count=_pairs),
    Target("gammaring", "GammaElement.__mul__", "gammaring.GammaElement.mul", count=_pairs),
    Target("gammaring", "GammaElement.__add__", "gammaring.GammaElement.add"),
    Target(
        "gammaring",
        "act_generator",
        "gammaring.act_generator",
        split=lambda args, kwargs: "s0" if args[0] == 0 else "si",
    ),
    Target("raising", "expand", "raising.expand"),
    Target("raising", "multi_schur_pfaffian", "raising.multi_schur_pfaffian", count=_cross_checked),
    Target("raising", "theta", "raising.theta"),
    Target("raising", "eta", "raising.eta"),
    Target(
        "schubert",
        "divided_difference",
        "schubert.divided_difference",
        count=lambda args, kwargs, result: {"terms_in": len(args[1].terms)},
    ),
    Target("schubert", "schubert_transition", "schubert.schubert_transition", key=_schubert_key),
    Target("schubert", "schubert_divdiff", "schubert.schubert_divdiff", key=_schubert_key),
    Target("invariants", "exact_rank", "invariants.exact_rank", count=_rank_cells),
    Target("invariants", "to_vector", "invariants.to_vector"),
    Target("weyl", "enumerate_group", "weyl.enumerate_group"),
    Target("weyl", "SignedPermutation.reduced_word", "weyl.reduced_word"),
    Target("weyl", "transition_data", "weyl.transition_data"),
    Target("weyl", "shape", "weyl.shape"),
    Target("serialize", "render_document", "serialize.render_document", count=_out_bytes),
    Target("serialize", "parse_document", "serialize.parse_document", count=_in_bytes),
    Target("serialize", "gamma_to_latex", "serialize.gamma_to_latex", count=_out_bytes),
)

# Names kept as individual spans; the rest are only aggregated.
RECORDED = frozenset({
    "cli.main",
    "raising.theta",
    "raising.eta",
    "raising.multi_schur_pfaffian",
    "schubert.schubert_transition",
    "schubert.schubert_divdiff",
    "invariants.exact_rank",
    "serialize.render_document",
    "serialize.parse_document",
    "serialize.gamma_to_latex",
})


class Tracer:
    """Span stack and per-(name, parent) aggregates for one process."""

    def __init__(self, request_id: int = 0, clock=time.perf_counter):
        self.request_id = request_id
        self.clock = clock
        self.stack: list = []  # frames: [span id, name, start, child seconds]
        self.agg: dict = {}  # (name, parent name) -> [calls, seconds, self seconds]
        self.outer: dict = {}  # name -> seconds of calls not nested in the same name
        self.depth: dict = {}  # name -> number of open spans with that name
        self.counters: dict = {}  # name -> {counter: total}
        self.keys: dict = {}  # name -> set of distinct argument keys
        self.spans: list = []  # recorded spans
        self.hook_errors: dict = {}  # name -> first error raised by a counter hook
        self._next_id = 1

    def call(self, name: str, fn, args, kwargs, target: Target | None = None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        if target is not None and target.key is not None and name not in self.hook_errors:
            try:
                self.keys.setdefault(name, set()).add(target.key(args, kwargs))
            except Exception as e:  # noqa: BLE001 - API drift disables the hook
                self.hook_errors[name] = f"{type(e).__name__}: {e}"
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        depth = self.depth.get(name, 0)
        self.depth[name] = depth + 1
        frame = [span_id, name, 0.0, 0.0]
        stack.append(frame)
        frame[2] = start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.depth[name] = depth
            dur = end - start
            parent_name = None
            if parent is not None:
                parent[3] += dur
                parent_name = parent[1]
            a = self.agg.get((name, parent_name))
            if a is None:
                a = self.agg[(name, parent_name)] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[3]
            if depth == 0:
                self.outer[name] = self.outer.get(name, 0.0) + dur
            if name in RECORDED:
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else 0, self.request_id)
                )
        if target is not None and target.count is not None and name not in self.hook_errors:
            try:
                counts = target.count(args, kwargs, result)
            except Exception as e:  # noqa: BLE001 - API drift disables the hook
                self.hook_errors[name] = f"{type(e).__name__}: {e}"
            else:
                box = self.counters.setdefault(name, {})
                for k, v in counts.items():
                    box[k] = box.get(k, 0) + v
        return result

    def wrap(self, fn, target: Target):
        tracer = self
        split = target.split

        def traced(*args, **kwargs):
            name = target.name
            if split is not None:
                try:
                    name = f"{name}.{split(args, kwargs)}"
                except Exception:  # noqa: BLE001 - unsplit span on API drift
                    pass
            return tracer.call(name, fn, args, kwargs, target)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS, package: str = "schubring") -> list[str]:
        """Wrap every target; return the names of targets that were not found."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        absent = []
        for t in targets:
            mod = sys.modules.get(f"{package}.{t.module}")
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(attr) if owner is not None else None
            if not callable(orig):
                absent.append(t.name)
                continue
            wrapper = self.wrap(orig, t)
            if owner_name:
                for k, v in list(vars(owner).items()):
                    if v is orig:
                        setattr(owner, k, wrapper)
            else:
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapper)
        return absent

    def report(self) -> dict:
        """Everything the benchmark aggregates, as JSON-ready data."""
        return {
            "request_id": self.request_id,
            "agg": [[n, p, c, s, ss] for (n, p), (c, s, ss) in self.agg.items()],
            "outer": self.outer,
            "counters": self.counters,
            "distinct": {n: len(v) for n, v in self.keys.items()},
            "spans": self.spans,
            "hook_errors": self.hook_errors,
        }
