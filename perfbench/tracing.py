"""Per-layer tracing: spans around the public calls of each package module.

The layers are the modules ``linalg``, ``states``, ``channels``,
``schmidt``, ``analysis``, ``suites`` and ``cli``. ``Tracer.installed()``
replaces each traced function at every module that bound it by name (and
in ``suites.SUITES``), wraps ``__init__`` of the traced classes, and wraps
``numpy.linalg.eigvalsh``, which the package calls through ``np.linalg``.
Leaving the block restores the originals, so untraced passes run the
program untouched.

Spans are kept in memory: name, thread, parent span, start and end. Span
stacks are per thread because sweeps run their records on pool threads; a
span opened on a pool thread with an empty stack is parented to the
innermost open span of the thread that created the tracer, which is
blocked in the sweep. A span's self time is its duration minus the union
of its children's intervals, computed by ``summary()`` at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import threading
import time
from collections import defaultdict

import numpy as np

import schmidt_lens
from schmidt_lens import analysis, channels, cli, linalg, schmidt, states, suites

_MODULES = (schmidt_lens, linalg, states, channels, schmidt, analysis, suites, cli)

_FUNCTIONS = (
    (linalg, "partial_trace"), (linalg, "partial_transpose"),
    (linalg, "hermitian_eig"), (linalg, "matrix_rank"),
    (states, "random_state_sn_at_most"), (states, "haar_unitary"),
    (channels, "choi"), (channels, "apply_matrix"), (channels, "tensor"),
    (channels, "depolarizing"), (channels, "dephasing"),
    (schmidt, "witness_value"), (schmidt, "witness"), (schmidt, "_id_lambda_matrix"),
    (schmidt, "apply_id_lambda"), (schmidt, "certify_sn_above"),
    (analysis, "snac_lattice_minimum"), (analysis, "eb_ppt_threshold"),
    (cli, "main"), (cli, "render_json"),
)
_CLASSES = (
    (states, "DensityMatrix"), (states, "PureState"),
    (channels, "ChoiMatrix"), (channels, "QuantumChannel"),
)
# Metrics counted by the wrappers rather than read off the spans.
COUNTED = ("linalg.eigvalsh.n3_sum", "channels.QuantumChannel.kraus_ops",
           "analysis.lattice_points", "analysis.bisect_crossing.f_evals")
TRACED_SUITES = ("lambda_window", "witness_nonneg", "snac_minimizer", "snac_two_local",
                 "channel_axioms")

# Per-layer metrics, in report order: name -> (unit, better).
PER_LAYER = {}
for _name in ("linalg.eigvalsh", "linalg.partial_trace", "linalg.partial_transpose",
              "linalg.hermitian_eig", "linalg.matrix_rank"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
    if _name == "linalg.eigvalsh":
        PER_LAYER[f"{_name}.n3_sum"] = ("n3-computed", "lower")
        PER_LAYER[f"{_name}.per_eval"] = ("ratio", "lower")
PER_LAYER.update({
    "states.DensityMatrix.calls": ("count", "lower"),
    "states.DensityMatrix.self_s": ("s", "lower"),
    "states.DensityMatrix.per_eval": ("ratio", "lower"),
    "states.PureState.calls": ("count", "lower"),
    "states.random_state_sn_at_most.calls": ("count", "lower"),
    "states.random_state_sn_at_most.self_s": ("s", "lower"),
    "states.haar_unitary.calls": ("count", "lower"),
})
for _name in ("channels.choi", "channels.ChoiMatrix", "channels.apply_matrix",
              "channels.tensor", "channels.QuantumChannel", "channels.depolarizing",
              "channels.dephasing", "schmidt.witness_value", "schmidt.witness",
              "schmidt._id_lambda_matrix", "schmidt.apply_id_lambda",
              "schmidt.certify_sn_above", "analysis.snac_lattice_minimum"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    if _name == "channels.QuantumChannel":
        PER_LAYER[f"{_name}.kraus_ops"] = ("count", "lower")
    if _name != "schmidt.witness":
        PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "analysis.lattice_points": ("count", "lower"),
    "analysis.simplex_lattice.self_s": ("s", "lower"),
    "analysis.bisect_crossing.calls": ("count", "lower"),
    "analysis.bisect_crossing.f_evals": ("count", "lower"),
    "analysis.eb_ppt_threshold.calls": ("count", "lower"),
    "analysis.eb_ppt_threshold.self_s": ("s", "lower"),
    "analysis.sweep.parallelism": ("ratio", "higher"),
    "analysis.sweep.worker_threads": ("count", "lower"),
})
PER_LAYER.update({f"suites.{name}.self_s": ("s", "lower") for name in TRACED_SUITES})
PER_LAYER.update({
    "cli.main.self_s": ("s", "lower"),
    "cli.render_json.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Tracer:
    """Records spans and counts while installed; create it on the driving thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, thread, parent index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._local.stack = self._root_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            span = [name, threading.get_ident(), parent, time.perf_counter(), None]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        patches = []

        def patch(owner, attr, new):
            old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            patches.append((owner, attr, old))
            if isinstance(owner, dict):
                owner[attr] = new
            else:
                setattr(owner, attr, new)

        def everywhere(original, new):
            for module in _MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, new)

        try:
            patch(np.linalg, "eigvalsh", self.span(
                "linalg.eigvalsh", np.linalg.eigvalsh, self._count_eigvalsh))
            for module, attr in _FUNCTIONS:
                fn = getattr(module, attr)
                everywhere(fn, self.span(f"{module.__name__.rsplit('.', 1)[1]}.{attr}", fn))
            for module, attr in _CLASSES:
                cls = getattr(module, attr)
                after = self._count_kraus if attr == "QuantumChannel" else None
                patch(cls, "__init__", self.span(
                    f"{module.__name__.rsplit('.', 1)[1]}.{attr}", cls.__init__, after))
            everywhere(analysis.bisect_crossing,
                       self.span("analysis.bisect_crossing",
                                 self._counting_bisection(analysis.bisect_crossing)))
            everywhere(analysis.simplex_lattice,
                       self.span("analysis.simplex_lattice", analysis.simplex_lattice,
                                 self._count_lattice))
            everywhere(analysis._ordered_map,
                       self.span("analysis.sweep", self._record_spans(analysis._ordered_map)))
            for name in TRACED_SUITES:
                fn = suites.SUITES[name]
                traced = self.span(f"suites.{name}", fn)
                patch(suites.SUITES, name, traced)
                everywhere(fn, traced)
            yield self
        finally:
            for owner, attr, old in reversed(patches):
                if isinstance(owner, dict):
                    owner[attr] = old
                else:
                    setattr(owner, attr, old)

    def _count_eigvalsh(self, args, result):
        shape = np.shape(args[0])
        batch = math.prod(shape[:-2])
        self.add("linalg.eigvalsh.matrices", batch)
        self.add("linalg.eigvalsh.n3_sum", batch * shape[-1] ** 3)

    def _count_kraus(self, args, result):
        self.add("channels.QuantumChannel.kraus_ops", len(args[0].kraus))

    def _count_lattice(self, args, result):
        self.add("analysis.lattice_points", len(result))

    def _counting_bisection(self, bisect):
        def bisect_crossing(f, *args, **kwargs):
            def counted(x):
                self.add("analysis.bisect_crossing.f_evals", 1)
                return f(x)
            return bisect(counted, *args, **kwargs)
        return bisect_crossing

    def _record_spans(self, ordered_map):
        def sweep(fn, items):
            return ordered_map(self.span("analysis.sweep.record", fn), items)
        return sweep

    def summary(self) -> dict[str, dict]:
        """Per span name: calls and self seconds."""
        children = defaultdict(list)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for idx, (name, _, _, start, end) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - _covered(children.get(idx, ()), start, end)
        return dict(stats)

    def sweep_stats(self) -> tuple[float, int]:
        """Sum of record durations over sweep wall time, and the most threads one sweep used."""
        wall, busy, threads = 0.0, 0.0, defaultdict(set)
        for name, tid, parent, start, end in self.spans:
            if name == "analysis.sweep":
                wall += end - start
            elif name == "analysis.sweep.record":
                busy += end - start
                threads[parent].add(tid)
        return (busy / wall if wall else 0.0,
                max((len(t) for t in threads.values()), default=0))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _per_pass(total, passes: int):
    """``total / passes``, kept an int when a count divides evenly."""
    if isinstance(total, int) and total % passes == 0:
        return total // passes
    return total / passes


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(tracer: Tracer, passes: int, evals_per_pass: int,
                  overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; counts and times are per traced pass."""
    stats = tracer.summary()
    counts = dict(tracer.counts)
    parallelism, worker_threads = tracer.sweep_stats()
    values = {
        "linalg.eigvalsh.per_eval": counts.get("linalg.eigvalsh.matrices", 0) / evals_per_pass,
        "states.DensityMatrix.per_eval":
            stats.get("states.DensityMatrix", {}).get("calls", 0) / evals_per_pass,
    }
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if metric in COUNTED:
            values[metric] = counts.get(metric, 0)
        elif field in ("calls", "self_s"):
            values[metric] = stats.get(name, {}).get(field, 0)
    values = {metric: _per_pass(value, passes) for metric, value in values.items()}
    values["analysis.sweep.parallelism"] = parallelism
    values["analysis.sweep.worker_threads"] = worker_threads
    values["trace.overhead_s"] = overhead_s
    return {metric: values[metric] for metric in PER_LAYER}
