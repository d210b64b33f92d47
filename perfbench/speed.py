"""Timings at a reference machine speed, measured against matched reference work.

The 2-vCPU machine this benchmark was built on runs the same code at
speeds more than 2x apart and switches between them from tenths of a second
to whole minutes, because of other tenants. Work of different kinds is not
slowed alike, so no single fixed probe tracks every measurement: scaled by
generic NumPy probes, single-window serving on `ettm2_dlinear` still spread
0.17 across runs. Instead each timed piece of the program is paired with
reference work written here in plain NumPy and shaped like it: the same
forward (`reference.py`), on the same window shapes, or the same CSV
parsing. Both slow down together, so their ratio holds still: 0.02 across
runs against 0.28 raw for single-window serving on `ettm2_dlinear`.

A figure is reported as `raw * REF / probe`: `probe` is the median time of
the measurement's reference work, timed before and after it and, through
`polling`, inside it whenever ten times its last duration has passed (that
time is excluded); `REF` is a constant per workload and kind
(`Workload.ref_s`), so that figures read in seconds at a fixed speed.
Serving alternates each call with its reference call instead (`paired`).
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager

import numpy as np

import reference as ref

# the reference work each kind of measurement is scaled by
KINDS = {
    "setup": ("parse",),
    "train": ("batch", "adam"),
    "eval": ("batch",),
    "eval_cmd": ("parse", "batch"),
    "serve_single": ("single",),
    "serve_batch": ("serve_batch",),
}
# inside a measurement the reference work runs again once this many times
# its last duration has passed, so it takes about a tenth of the time
SPACING = 10.0


def reference_pieces(w, csv_lines, arrays, config, x_pool, y_pool) -> dict:
    """Zero-argument callables of plain NumPy work shaped like the workload's.

    `arrays` are one model's exported arrays (the untrained baseline's will
    do: only shapes matter), `x_pool`/`y_pool` (W, N, T)/(W, N, H) windows.
    """
    forms = {"m": arrays}
    single = np.ascontiguousarray(x_pool[:1])
    xs, ys = list(x_pool[: w.batch_size]), list(y_pool[: w.batch_size])
    x64 = np.ascontiguousarray(x_pool[:64])
    # an Adam update over as many parameters as the baseline form has
    rng = np.random.default_rng(20_251_108)
    p, g = rng.standard_normal((2, sum(a.size for a in arrays.values())))
    m, v = np.zeros_like(p), np.zeros_like(p)

    def parse() -> np.ndarray:
        # what `load_csv` does per row and cell
        rows, prev = [], ""
        for record in csv.reader(csv_lines):
            stamp = record[0].strip()
            try:
                stamp = float(stamp)
            except ValueError:
                pass
            if not stamp > prev:
                raise ValueError("timestamps out of order")
            prev = stamp
            row = []
            for cell in record[1:]:
                value = float(cell.strip())
                if np.isfinite(value):
                    row.append(value)
            rows.append(row)
        return np.asarray(rows)

    def batch() -> float:
        # a gathered batch through the forward and its error sums
        x, y = np.stack(xs), np.stack(ys)
        diff = ref.forward(forms, config, x, fast=True)["m"] - y
        return float((diff * diff).sum()) + float(np.abs(diff).sum())

    def adam() -> None:
        m[...] = 0.9 * m + 0.1 * g
        v[...] = 0.999 * v + 0.001 * (g * g)
        p[...] -= 1e-3 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)

    return {
        "parse": parse,
        "batch": batch,
        "adam": adam,
        "single": lambda: ref.forward(forms, config, single, fast=True),
        "serve_batch": lambda: ref.forward(forms, config, x64, fast=True),
    }


class SpeedProbe:
    def __init__(self, pieces: dict, ref_s: dict[str, float]):
        self.pieces = pieces
        self.ref_s = ref_s
        # (label, raw seconds, median probe seconds) of every measurement
        self.records: list[tuple[str, float, float]] = []
        self._kind: str | None = None
        self._inside: list[float] = []
        self._spent = 0.0
        self._last = 0.0
        self._cost = 0.0

    def sample(self, kind: str) -> float:
        """Seconds of one run of the kind's reference work."""
        t0 = time.perf_counter()
        for name in KINDS[kind]:
            self.pieces[name]()
        self._cost = time.perf_counter() - t0
        return self._cost

    def poll(self) -> None:
        """Probe if the last probe inside the current measurement is old enough."""
        if self._kind is None:
            return
        t0 = time.perf_counter()
        if t0 - self._last >= SPACING * self._cost:
            self._inside.append(self.sample(self._kind))
            self._last = time.perf_counter()
            self._spent += self._last - t0

    def measure(self, fn, *args, kind: str, label: str, **kwargs):
        """Run `fn`; return (its result, reference-speed seconds, raw seconds)."""
        if self._kind is not None:
            raise RuntimeError("measurements do not nest")
        self._inside = [self.sample(kind)]
        self._spent = 0.0
        self._kind = kind
        t0 = self._last = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            raw = time.perf_counter() - t0 - self._spent
        finally:
            self._kind = None
        probes = self._inside + [self.sample(kind)]
        probe_s = float(np.median(probes))
        self.records.append((label, raw, probe_s))
        return out, self.scale(raw, probe_s, kind), raw

    def scale(self, raw_seconds: float, probe_s: float, kind: str) -> float:
        return raw_seconds * self.ref_s[kind] / probe_s

    def paired(self, call, inputs, kind: str, budget: float, block_s: float = 0.01):
        """Closed-loop calls, each followed by its reference call, in blocks.

        Returns the raw call times and, per block of about `block_s` of
        calls, the block's median at reference speed: the median call over
        the median reference call, times REF.
        """
        (work,) = (self.pieces[name] for name in KINDS[kind])
        for i in range(10):
            call(inputs[i % len(inputs)])
            work()
        clock = time.perf_counter
        raw, blocks = [], []
        deadline = clock() + budget
        i = 0
        while clock() < deadline or len(blocks) < 3:
            own, other = [], []
            while sum(own) < block_s or len(own) < 2:
                t0 = clock()
                call(inputs[i % len(inputs)])
                t1 = clock()
                work()
                own.append(t1 - t0)
                other.append(clock() - t1)
                i += 1
            raw += own
            probe_s = float(np.median(other))
            self.records.append((kind, float(np.median(own)), probe_s))
            blocks.append(self.scale(float(np.median(own)), probe_s, kind))
        return raw, blocks

    def summary(self) -> dict:
        """Per kind, the median and range of the reference work's time, for the report."""
        out = {}
        for kind in KINDS:
            times = [p for label, _, p in self.records if label.split(".")[0] == kind]
            if times:
                out[kind] = {"median": float(np.median(times)), "min": min(times),
                             "max": max(times), "samples": len(times)}
        return out

    @contextmanager
    def polling(self, owner, attr: str):
        """Probe from inside calls to `owner.attr` while the block runs."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.poll()
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, fn)
