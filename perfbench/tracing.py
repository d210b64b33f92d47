"""Spans recorded from the benchmark's side of each layer boundary.

A `Tracer` keeps spans in memory: name, start, end, parent span, run id and
a few attributes. `instrument` wraps the package's public functions at the
module attribute the caller looks them up through, so every call made
inside `train`, `evaluate` and `ForecastModel.forward` opens a span. The
wrappers only time and count; they call the original with the same
arguments and return its result, so a traced run computes the same bits.

The single private hook is `trainer._stack_batch`, the batch gather, which
has no public entry point. Any hook point missing from the package is
skipped and listed in the report.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.attrs: dict = {}

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            **self.attrs,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def context(self, **attrs):
        """Attributes (form, phase) copied onto every span opened inside."""
        saved = dict(self.attrs)
        self.attrs.update(attrs)
        try:
            yield
        finally:
            self.attrs = saved

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _wrap(tracer: Tracer, name: str, fn, on_call=None):
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args)
        with tracer.span(name):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer, hn):
    """Install span wrappers on the package `hn` (a namespace of its modules)."""
    from_tape = hn.numcore.Tape

    def count_tape(args):
        with tracer.span("trace.tape_count") as rec:
            rec["nodes"] = len(from_tape.trace(args[0]))

    def count_adam(args):
        params = args[0]
        with tracer.span("trace.adam_count") as rec:
            n = sum(int(p.data.size) for p in params.values())
            item = max((p.data.itemsize for p in params.values()), default=8)
            rec["params"] = n
            # Adam reads p, g, m, v and writes p, m, v: seven arrays per step
            rec["bytes"] = 7 * item * n

    hooks = [
        (hn.trainer, "_stack_batch", "data.gather", None),
        (hn.trainer, "revin_apply", "normalization.revin", None),
        (hn.trainer, "backward", "tensor.backward", count_tape),
        (hn.trainer, "adam_step", "optim.adam", count_adam),
        (hn.trainer, "evaluate", "trainer.val_eval", None),
        (hn.hypernet, "revin_forward", "normalization.revin", None),
        (hn.hypernet, "revin_reverse", "normalization.revin", None),
        (hn.hypernet, "apply_final", "backbones.final", None),
        (hn.hypernet, "generate_weights", "hypernet.generate", None),
        (hn.backbones, "decompose", "backbones.decompose", None),
        (hn.hypernet.ForecastModel, "forward", "model.forward", None),
        (hn.hypernet.ForecastModel, "forward_normalized", "model.forward", None),
        (hn.backbones.DLinearBackbone, "forward_hidden", "backbones.hidden", None),
        (hn.backbones.MlpBackbone, "forward_hidden", "backbones.hidden", None),
    ]
    saved = []
    missing = []
    for owner, attr, name, on_call in hooks:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, name, fn, on_call))
    try:
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# analysis -------------------------------------------------------------------


class SpanIndex:
    """Durations, self times and ancestry over one tracer's spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    @staticmethod
    def dur(s) -> float:
        return s["end"] - s["start"]

    def self_time(self, s) -> float:
        """Duration minus the part of it covered by direct children."""
        covered = 0.0
        edge = s["start"]
        for c in sorted(self.children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        return self.dur(s) - covered

    def under(self, s, name: str) -> bool:
        p = s["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def select(self, name, *, form=None, phase=None, within=None, outside=None):
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            if form is not None and s.get("form") != form:
                continue
            if phase is not None and s.get("phase") != phase:
                continue
            if within is not None and not self.under(s, within):
                continue
            if outside is not None and self.under(s, outside):
                continue
            out.append(s)
        return out

    def total(self, name, **kw) -> float:
        return float(sum(self.dur(s) for s in self.select(name, **kw)))

    def self_table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.dur(s)
            row["self_s"] += self.self_time(s)
        return table


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0
