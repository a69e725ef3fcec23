"""In-memory span tracing that instruments zerosep's public layer functions
from outside the package.

Each wrapped call records one span: name, start, end, parent span and op id,
plus attributes taken from its arguments or result.  A wrapper replaces the
function in every ``zerosep`` module that holds it by name, so calls through
``from .lattice import simultaneous_approx`` are traced as well as calls
inside the defining module.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Span store with a call stack; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root span named ``op``."""
        self.op_id = op_id
        rec = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.op_id = None

    def wrap(self, name: str, fn, attrs=None):
        """Traced stand-in for ``fn``; ``attrs(args, kwargs, result)`` adds
        span attributes after a successful call."""
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(rec)
            if attrs is not None:
                rec.update(attrs(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class Instrumentation:
    """Installs traced wrappers for a list of targets and removes them.

    A target is ``(owner, attr, span_name, attrs)`` where ``owner`` is a
    dotted module path (``"zerosep.lattice"``) or ``"module:Class"`` for a
    method.  Module functions are replaced in every loaded ``zerosep``
    module that binds the same object; methods are replaced on the class.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, holder, attr: str, new) -> None:
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self) -> "Instrumentation":
        for owner, attr, span_name, attrs in self.targets:
            if ":" in owner:
                mod_name, cls_name = owner.split(":")
                cls = getattr(sys.modules[mod_name], cls_name)
                original = cls.__dict__[attr]
                self._replace(cls, attr, self.tracer.wrap(span_name, original, attrs))
                continue
            original = getattr(sys.modules[owner], attr)
            traced = self.tracer.wrap(span_name, original, attrs)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "zerosep"
                                       or mod_name.startswith("zerosep.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, traced)
        return self

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, value = self._saved.pop()
            setattr(holder, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (children clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec["parent"] is not None:
            parent = spans[rec["parent"]]
            lo = max(rec["start"], parent["start"])
            hi = min(rec["end"], parent["end"])
            if hi > lo:
                children[rec["parent"]].append((lo, hi))
    return [(rec["end"] - rec["start"]) - _union_length(children[rec["id"]])
            for rec in spans]


def has_ancestor(spans: list[dict], rec: dict, name: str) -> bool:
    parent = rec["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False
