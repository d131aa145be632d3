"""Layer tracing for the benchmark, installed from outside the library.

:class:`Tracer` replaces each public function or method listed in
:data:`TRACED` with a wrapper that records one span per call: the span's
name, start and end (``perf_counter_ns``), its parent span and its thread.
Spans stay in per-thread arrays until :meth:`Tracer.write` saves them, so a
call costs a few appends and no lock.

A function is replaced in every ``igokit`` module namespace that holds a
reference to it: ``oracle``, ``diagnostics``, ``algorithms`` and ``verify``
import functions by name, so patching only the defining module would miss
their calls. Methods are replaced on their class.

Self time is a span's duration minus the part its child spans on the same
thread cover. Counts that need the call's arguments or result (distinct
fitness levels, rows, bytes) are taken after the call returns; the time they
take is recorded as a child span of the caller, so it is subtracted from the
caller's self time and reported nowhere.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

_INSTRUMENT = "bench.instrument"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_levels(metric, index, name):
    def count(counts, args, kwargs, result):
        counts[metric] += int(np.unique(np.asarray(_arg(args, kwargs, index, name))).size)

    return count


def _count_support(index, name, builds):
    # Each call builds ``builds`` probability vectors over the full support;
    # the support size is the length of the per-point fitness table.
    def count(counts, args, kwargs, result):
        counts["oracle.support_points"] += builds * len(_arg(args, kwargs, index, name))

    return count


def _count_finite_dist(counts, args, kwargs, result):
    counts["oracle.support_points"] += len(_arg(args, kwargs, 2, "prob"))


def _count_rows(counts, args, kwargs, result):
    counts["objectives.batch.rows"] += len(_arg(args, kwargs, 1, "points"))


def _count_igo_rows(counts, args, kwargs, result):
    weights = _arg(args, kwargs, 3, "weights")
    w = np.asarray(getattr(weights, "w", weights))
    counts["updates.igo_step.rows"] += w.size
    counts["updates.igo_step.useful_rows"] += int(np.count_nonzero(w))


def _count_bytes(counts, args, kwargs, result):
    counts["traceio.render_trace.bytes"] += len(result.encode())


def _count_run(counts, args, kwargs, result):
    counts["algorithms.retries"] += result.halvings
    counts["algorithms.steps"] += len(result.steps)


# (span name, defining module, attribute path, count hook)
TRACED = (
    ("models.sample", "models", "Bernoulli.sample", None),
    ("models.sample", "models", "Gaussian.sample", None),
    ("models.batch_sufficient_statistics", "models", "Bernoulli.batch_sufficient_statistics", None),
    ("models.batch_sufficient_statistics", "models", "Gaussian.batch_sufficient_statistics", None),
    ("models.from_eta", "models", "Bernoulli.from_eta", None),
    ("models.from_eta", "models", "Gaussian.from_eta", None),
    ("models.kl_divergence", "models", "Bernoulli.kl_divergence", None),
    ("models.kl_divergence", "models", "Gaussian.kl_divergence", None),
    ("objectives.batch", "objectives", "Objective.batch", _count_rows),
    ("selection.sample_weights", "selection", "sample_weights", None),
    ("selection.preference_exact", "selection", "preference_exact",
     _count_levels("selection.preference_exact.levels", 1, "fitness")),
    ("updates.igo_step", "updates", "igo_step", _count_igo_rows),
    ("updates.blockwise_igo_ml_step", "updates", "blockwise_igo_ml_step", None),
    ("updates.fitness_proportional_step", "updates", "fitness_proportional_step", None),
    ("oracle.FiniteDist", "oracle", "FiniteDist.__init__", _count_finite_dist),
    ("oracle.enumerate_bernoulli", "oracle", "enumerate_bernoulli", None),
    ("oracle.exact_quantile", "oracle", "exact_quantile",
     _count_levels("oracle.exact_quantile.levels", 1, "fitness")),
    ("oracle.exact_infinite_population_step", "oracle", "exact_infinite_population_step",
     _count_support(1, "fitness", 1)),
    ("oracle.exact_blockwise_coordinate_step", "oracle", "exact_blockwise_coordinate_step",
     _count_support(1, "fitness", 1)),
    ("oracle.exact_J", "oracle", "exact_J", _count_support(2, "fitness", 2)),
    ("diagnostics.progress_bound", "diagnostics", "progress_bound", None),
    ("diagnostics.estimate_preference_mean", "diagnostics", "estimate_preference_mean", None),
    ("diagnostics.empirical_quantile", "diagnostics", "empirical_quantile", None),
    ("algorithms.run", "algorithms", "run", _count_run),
    ("verify.run_suite", "verify", "run_suite", None),
    ("traceio.trace_records", "traceio", "trace_records", None),
    ("traceio.render_trace", "traceio", "render_trace", _count_bytes),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TRACED))

COUNTS = {
    "selection.preference_exact.levels": "count",
    "oracle.exact_quantile.levels": "count",
    "oracle.support_points": "count",
    "oracle.enumerations_per_step": "1/step",
    "objectives.batch.rows": "count",
    "updates.igo_step.useful_row_ratio": "ratio",
    "algorithms.retries": "count",
    "verify.threads": "count",
    "verify.busy_ratio": "ratio",
    "traceio.render_trace.bytes": "bytes",
    "trace_overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name mapped to its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    return units


class _ThreadLog:
    """Spans and counts of one thread, in completion order."""

    def __init__(self):
        self.stack = []
        self.next_id = 0
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()

    def record(self, sid, parent, name, start, end):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)


class Tracer:
    """Wraps the functions in :data:`TRACED` while installed (a context manager)."""

    def __init__(self):
        self._names = list(SPAN_NAMES) + [_INSTRUMENT]
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._undo = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, fn, name_index, count):
        instrument = self._names.index(_INSTRUMENT)
        clock = time.perf_counter_ns
        log_of_thread = self._log

        def wrapper(*args, **kwargs):
            log = log_of_thread()
            stack = log.stack
            parent = stack[-1] if stack else 0
            log.next_id += 1
            sid = log.next_id
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                log.record(sid, parent, name_index, t0, t1)
            if count is not None:
                count(log.counts, args, kwargs, result)
                log.next_id += 1
                log.record(log.next_id, parent, instrument, t1, clock())
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "igokit" or key.startswith("igokit.")]
        for name, module_name, path, count in TRACED:
            owner = importlib.import_module(f"igokit.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(owner, owner_name)
                original = cls.__dict__[attr]
                holders = [(cls, attr)]
            else:
                original = getattr(owner, attr)
                holders = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
            wrapper = self._wrap(original, self._names.index(name), count)
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
        return False

    def _arrays(self):
        """Per thread: span ids, parents, name indices, starts, ends and self times."""
        out = []
        for log in self._logs:
            sid = np.array(log.sid, dtype=np.int64)
            parent = np.array(log.parent, dtype=np.int64)
            start = np.array(log.start, dtype=np.int64)
            end = np.array(log.end, dtype=np.int64)
            dur = end - start
            covered = np.zeros(log.next_id + 1, dtype=np.int64)
            np.add.at(covered, parent, dur)
            self_ns = dur - covered[sid]
            out.append((log, sid, parent, np.array(log.name, dtype=np.int64),
                        start, end, self_ns))
        return out

    def layer_metrics(self) -> dict:
        """Calls and self time per span name, plus the per-layer counts."""
        n_names = len(self._names)
        calls = np.zeros(n_names, dtype=np.int64)
        self_ns = np.zeros(n_names)
        counts = Counter()
        arrays = self._arrays()
        for log, _, _, name, _, _, self_t in arrays:
            calls += np.bincount(name, minlength=n_names)
            self_ns += np.bincount(name, weights=self_t, minlength=n_names)
            counts.update(log.counts)
        metrics = {}
        for i, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.calls"] = int(calls[i])
            metrics[f"{name}.self_s"] = float(self_ns[i]) / 1e9
        for name in ("selection.preference_exact.levels", "oracle.exact_quantile.levels",
                     "oracle.support_points", "objectives.batch.rows",
                     "algorithms.retries", "traceio.render_trace.bytes"):
            metrics[name] = int(counts[name])
        steps = counts["algorithms.steps"]
        enumerations = metrics["oracle.enumerate_bernoulli.calls"]
        metrics["oracle.enumerations_per_step"] = enumerations / steps if steps else 0.0
        rows = counts["updates.igo_step.rows"]
        metrics["updates.igo_step.useful_row_ratio"] = (
            counts["updates.igo_step.useful_rows"] / rows if rows else 0.0
        )
        metrics["verify.threads"], metrics["verify.busy_ratio"] = self._verify_pool(arrays)
        return metrics

    def _verify_pool(self, arrays):
        """Threads that worked inside ``run_suite`` and their busy share.

        The workers of a ``run_suite`` call are the other threads with root
        spans inside its time window (the pool); without a pool, the calling
        thread itself, whose work is the direct children of the call. Busy
        time is the summed duration of those spans; the ratio divides it by
        workers x wall, summed over calls.
        """
        suite = SPAN_NAMES.index("verify.run_suite")
        instrument = self._names.index(_INSTRUMENT)
        max_threads = 0
        busy_total = 0
        capacity = 0
        for log, sid, parent, name, start, end, _ in arrays:
            for k in np.flatnonzero(name == suite):
                lo, hi = start[k], end[k]
                spans = []
                for o_log, _, o_parent, o_name, o_start, o_end, _ in arrays:
                    if o_log is not log:
                        mask = ((o_parent == 0) & (o_name != instrument)
                                & (o_start >= lo) & (o_end <= hi))
                        if mask.any():
                            spans.append(o_end[mask] - o_start[mask])
                if not spans:
                    mask = (parent == sid[k]) & (name != instrument)
                    spans = [end[mask] - start[mask]]
                max_threads = max(max_threads, len(spans))
                busy_total += sum(int(d.sum()) for d in spans)
                capacity += len(spans) * int(hi - lo)
        return max_threads, (busy_total / capacity if capacity else 0.0)

    def write(self, path) -> int:
        """Save every span to a compressed ``.npz`` file; returns the span count."""
        columns = {k: [] for k in ("thread", "span", "parent", "name", "start_ns", "end_ns")}
        for thread, (_, sid, parent, name, start, end, _) in enumerate(self._arrays()):
            columns["thread"].append(np.full(sid.size, thread, dtype=np.int64))
            columns["span"].append(sid)
            columns["parent"].append(parent)
            columns["name"].append(name)
            columns["start_ns"].append(start)
            columns["end_ns"].append(end)
        data = {k: np.concatenate(v) if v else np.zeros(0, dtype=np.int64)
                for k, v in columns.items()}
        np.savez_compressed(path, names=np.array(self._names), **data)
        return int(data["span"].size)
