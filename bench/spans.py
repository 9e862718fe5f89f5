"""In-memory spans around the package's public functions, recorded from
outside the package.

A traced function is replaced by a wrapper under every name that refers to
it in any package module, because several modules bind functions at import
(``bounds`` imports ``canonical_distribution``, ``differential_entropy``,
``mean_square_deviation`` and the ``fock`` statistics by name), so patching
the defining module alone would miss those calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Span fields, in order.
NAME, START, END, PARENT, OP, SIZE, OK = range(7)


def _dim(matrix, *args, **kwargs):
    return matrix.shape[0]


def _points(dist, points, *args, **kwargs):
    return points


# (span name, owner attribute path, size of the call's work or None)
TARGETS = (
    ("cli.main", "cli.main", None),
    ("optimizer.figure2_curve", "optimizer.figure2_curve", None),
    ("optimizer.optimize_at_mean", "optimizer.optimize_at_mean", None),
    ("optimizer.solve_at_multiplier", "optimizer.solve_at_multiplier", None),
    ("optimizer.cost_matrix", "optimizer.cost_matrix", None),
    ("optimizer.min_eigenpair", "optimizer.min_eigenpair", _dim),
    ("povm.pom_load", "povm.EstimatePOM.from_json", None),
    ("povm.average_distribution", "povm.average_distribution", None),
    ("povm.kphase_construction", "povm.kphase_construction", None),
    ("povm.per_phase_variance", "povm.per_phase_variance", None),
    ("povm.conditional_probability", "povm.conditional_probability", None),
    ("phasedist.canonical_distribution", "phasedist.canonical_distribution", None),
    ("phasedist.differential_entropy", "phasedist.differential_entropy", None),
    ("phasedist.density_grid", "phasedist.density_grid", _points),
    ("phasedist.mean_square_deviation", "phasedist.mean_square_deviation", None),
    ("bounds.entropy_chain_report", "bounds.entropy_chain_report", None),
    ("bounds.airy_first_zero", "bounds.airy_first_zero", None),
    ("fock.state_load", "fock.ProbeState.from_json", None),
    ("fock.mean_number", "fock.mean_number", None),
    ("fock.number_entropy", "fock.number_entropy", None),
    ("fock.thermal_entropy", "fock.thermal_entropy", None),
)


class Tracer:
    """Records spans as lists [name, start, end, parent, op, size, ok];
    ``parent`` is the index of the enclosing span or -1.  Single-threaded:
    the enclosing span is the top of one stack."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    size(*args, **kwargs) if size else None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package):
        """Patch every target in every module of ``package``."""
        modules = [package] + [
            getattr(package, m) for m in ("cli", "optimizer", "povm", "phasedist", "bounds", "fock")
        ]
        for name, path, size in TARGETS:
            *owner_path, attr = path.split(".")
            owner = functools.reduce(getattr, owner_path, package)
            if isinstance(owner, type):  # a classmethod such as from_json
                original = owner.__dict__[attr]
                setattr(owner, attr, classmethod(self.wrap(name, original.__func__, size)))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "size", "ok"],
                       "spans": self.spans}, fh)


def union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
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


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = union_length(
            (max(c[START], lo), min(c[END], hi)) for c in children[i] if c[END] > lo and c[START] < hi
        )
        out.append((hi - lo) - covered)
    return out


class Summary:
    """Per-name aggregates of a span list."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.ok = defaultdict(int)
        self.total = defaultdict(float)
        self.self_total = defaultdict(float)
        self.durations = defaultdict(list)
        self.selfs = defaultdict(list)
        self.sizes = defaultdict(list)
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            self.calls[name] += 1
            self.ok[name] += bool(span[OK])
            self.total[name] += span[END] - span[START]
            self.self_total[name] += own
            self.durations[name].append(span[END] - span[START])
            self.selfs[name].append(own)
            if span[SIZE] is not None:
                self.sizes[name].append(span[SIZE])
