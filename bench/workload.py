"""One benchmark workload in a fresh interpreter; started by ``bench/run.py``.

The process imports ``igokit`` from the checkout's ``src/``, sets the
workload up, then runs a fixed number of rounds of operations: ``--seconds``
divided by the workload's nominal round time, at least one. The count never
depends on how fast rounds actually run, so two commits given the same seed
and ``--seconds`` time exactly the same inputs. It checks every output, and
prints one JSON line with its measurements as the last line of stdout.

With ``--setup-only`` it stops after set-up. With ``--trace 1`` it runs half
as many rounds, each twice, untraced and then under :class:`tracer.Tracer`,
and reports per-layer metrics instead.

Round ``r`` uses seed ``seed + 1000 * r``: round 0 runs on the workload seed
itself, and one seed always gives the same inputs. ``verify-exact`` takes as
its grid seed the first seed from there on whose grid has the expected
number of fitness levels (see :meth:`VerifyExact.grid_seed`).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
ROUND_SEED_STRIDE = 1000


class Tally:
    """What a pass of rounds did: operation time, op counts, outputs."""

    def __init__(self):
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.step_ns = []
        self.digests = []
        self.errors = Counter()
        self.problems = []
        self.round_s = []

    def run_round(self, workload, r):
        """Run round ``r`` of ``workload``; record its operation time."""
        timed_s = self.timed_s
        workload.run_round(r, self)
        self.round_s.append(self.timed_s - timed_s)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if not k.startswith("elapsed")}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


# verify's ``small`` improvement grid, as igokit.verify draws it: case i
# runs objective GRID_OBJECTIVES[i % 27 // 9] (q and dt cycle within) on d
# bits, d uniform on 2..10, then draws 3 d more uniforms.
GRID_CASES = 200
GRID_OBJECTIVES = ("onemax", "binval", "random-table")
GRID_DIMS = range(2, 11)
GRID_SEED_STEP = 100_003
GRID_LEVELS_TOL = 0.05


def _levels(objective, d):
    """Distinct fitness values of ``objective`` over the 2^d bit strings."""
    return d + 1 if objective == "onemax" else 2 ** d


def _grid_levels(seed):
    rng = np.random.default_rng([seed, 777])
    total = 0
    for i in range(GRID_CASES):
        d = int(rng.integers(GRID_DIMS.start, GRID_DIMS.stop))
        rng.random(3 * d)
        total += _levels(GRID_OBJECTIVES[i % 27 // 9], d)
    return total


GRID_LEVELS_EXPECTED = sum(
    statistics.mean(_levels(GRID_OBJECTIVES[i % 27 // 9], d) for d in GRID_DIMS)
    for i in range(GRID_CASES)
)


class VerifyExact:
    """Exact-oracle verification on the seed's ``small`` improvement grid.

    Many small supports (d from 2 to 10, up to 1024 distinct fitness levels)
    and many short calls: cost comes from per-call numpy overhead, the Python
    loop over fitness levels in ``preference_exact`` and the verify thread
    pool. Samples nothing and renders no trace. One op is one grid case.
    """

    name = "verify-exact"
    suites = ("progress-bound", "blockwise-improvement")
    round_s = 14.0
    must_call = (
        "selection.preference_exact", "oracle.exact_infinite_population_step",
        "oracle.exact_blockwise_coordinate_step", "oracle.exact_J", "oracle.exact_quantile",
        "models.from_eta", "models.kl_divergence", "diagnostics.progress_bound",
        "verify.run_suite",
    )
    must_not_call = ("models.sample", "traceio.")

    def __init__(self, igokit, seed):
        self.igokit = igokit
        self.seed = seed
        for d in GRID_DIMS:
            igokit.oracle.bernoulli_support(d)

    def grid_seed(self, r):
        """The verify grid seed of round ``r``: the first of ``base``,
        ``base + GRID_SEED_STEP``, ... whose grid has within GRID_LEVELS_TOL
        of the expected number of fitness levels (``base`` is the round seed).

        Levels, the trip count of ``preference_exact``'s loop, set a grid's
        cost, and one grid's number of 10-bit binval and random-table cases
        alone moves it by half. Without this, ``ops_per_s`` measured which
        grids a seed drew more than how fast igokit ran.
        """
        base = self.seed + ROUND_SEED_STRIDE * r
        for j in itertools.count():
            grid_seed = base + GRID_SEED_STEP * j
            if abs(_grid_levels(grid_seed) / GRID_LEVELS_EXPECTED - 1) <= GRID_LEVELS_TOL:
                return grid_seed

    def run_round(self, r, tally):
        grid_seed = self.grid_seed(r)
        for suite in self.suites:
            t0 = time.perf_counter()
            report = self.igokit.verify.run_suite(suite, grid="small", seed=grid_seed)
            tally.timed_s += time.perf_counter() - t0
            tally.attempted += len(report.cases)
            tally.failed += report.n_failed
            if not report.passed:
                tally.problems.append(
                    f"{suite} seed {grid_seed}: {report.n_failed} failing cases"
                )
            levels = sum(_levels(c.detail["objective"], c.detail["d"])
                         for c in report.cases if "d" in c.detail)
            drawn = _grid_levels(grid_seed)
            if levels != drawn:
                tally.problems.append(
                    f"{suite} seed {grid_seed}: the grid has {levels} levels, not the "
                    f"{drawn} the benchmark drew; igokit's grid changed"
                )
            body = json.dumps(_strip_timing(report.to_dict()), sort_keys=True)
            tally.digests.append({"op": f"{suite}:{grid_seed}", "sha256": _digest(body)})


class RunWorkload:
    """Seeded ``igokit.run`` calls, each followed by csv trace rendering,
    as ``igo-kit run`` does. One op is one optimizer step; a run that raises
    fails its whole step budget (the CLI writes no trace), and a run stopped
    by a domain exit fails its unexecuted steps."""

    configs = ()
    must_call = ()
    must_not_call = ()

    def __init__(self, igokit, seed):
        self.igokit = igokit
        self.seed = seed
        for config in self.round_configs(0):
            config.validate()
            config.make_objective()

    def round_configs(self, r):
        seed = self.seed + ROUND_SEED_STRIDE * r
        return [
            self.igokit.AlgorithmConfig(**kwargs, seed=seed, objective_seed=seed,
                                        domain_exit="safeguard")
            for kwargs in self.configs
        ]

    def run_round(self, r, tally):
        igokit = self.igokit
        for config in self.round_configs(r):
            label = f"{config.algorithm}:{config.objective}:d{config.dim}:{config.seed}"
            tally.attempted += config.max_steps
            t0 = time.perf_counter()
            try:
                trace = igokit.run(config)
            except igokit.IgoKitError as exc:
                tally.timed_s += time.perf_counter() - t0
                tally.failed += config.max_steps
                error = f"{type(exc).__name__}: {exc}"
                tally.errors[f"{config.algorithm}:{config.objective}: {error}"] += 1
                tally.digests.append({"op": label, "sha256": _digest(error)})
                continue
            records = igokit.traceio.trace_records(trace)
            text = igokit.traceio.render_trace(records, fmt="csv")
            tally.timed_s += time.perf_counter() - t0

            if trace.stop_reason != "target":
                tally.failed += config.max_steps - len(trace.steps)
            elapsed = [s.elapsed_ns for s in trace.steps]
            tally.step_ns.extend(np.diff(elapsed, prepend=0).tolist())
            tally.digests.append({"op": label, "sha256": _digest(text)})
            self._check(trace, records, text, label, tally)

    def _check(self, trace, records, text, label, tally):
        etas = [s.eta for s in trace.steps] + [trace.final_eta]
        if not all(np.all(np.isfinite(eta)) for eta in etas):
            tally.problems.append(f"{label}: non-finite eta")
        path = OUT / f"roundtrip-{os.getpid()}.csv"
        path.write_text(text)
        try:
            if self.igokit.traceio.read_trace(path) != records:
                tally.problems.append(f"{label}: rendered trace does not read back equal")
        finally:
            path.unlink()


class SampledRuns(RunWorkload):
    """Sampled IGO runs: sampling, objective evaluation, ``sample_weights``,
    ``igo_step`` on 1000x1000 temporaries (3/4 of rows at zero weight), the
    Gaussian blockwise step with ``from_eta`` and Cholesky, and 2 MB traces.
    ``oracle`` and ``preference_exact`` do no work here, so changes to them
    should leave this workload unmoved. The cma config runs past the step
    (about 205-227) where ``run`` raises ``DegenerateDistributionError``;
    its failed steps stay visible in ``failed``."""

    name = "sampled-runs"
    configs = (
        dict(algorithm="pbil", objective="onemax", dim=1000, lam=1000, q=0.25, dt=0.5,
             max_steps=100),
        dict(algorithm="cma_rank_mu", objective="ellipsoid", dim=40, lam=100, q=0.5, dt=0.5,
             max_steps=300),
    )
    round_s = 2.7
    must_call = (
        "objectives.batch", "models.sample", "models.batch_sufficient_statistics",
        "models.from_eta", "models.kl_divergence", "selection.sample_weights",
        "updates.igo_step", "updates.blockwise_igo_ml_step", "diagnostics.empirical_quantile",
        "algorithms.run", "traceio.trace_records", "traceio.render_trace",
    )
    must_not_call = ("oracle.", "selection.preference_exact")


class ExactD16(RunWorkload):
    """The exact oracle at its largest support, 2^16 points, with few calls:
    exact RPP enumerates the support twice per step and re-evaluates the
    fixed reward table, ``exact_quantile`` scans 65 536 levels, and pbil's
    ``estimate_j`` takes exact expected preferences over 17 levels. Same
    layers as ``verify-exact``, used the other way round."""

    name = "exact-d16"
    configs = (
        dict(algorithm="rpp", objective="random-reward", dim=16, dt=1.0, max_steps=50),
        dict(algorithm="pbil", objective="onemax", dim=16, lam=200, q=0.25, dt=0.5,
             max_steps=100, estimate_j=True),
    )
    round_s = 5.0
    must_call = (
        "oracle.exact_quantile", "oracle.enumerate_bernoulli", "objectives.batch",
        "models.sample", "models.batch_sufficient_statistics",
        "updates.fitness_proportional_step", "diagnostics.estimate_preference_mean",
        "diagnostics.empirical_quantile", "algorithms.run",
    )

    def __init__(self, igokit, seed):
        igokit.oracle.bernoulli_support(16)
        super().__init__(igokit, seed)


WORKLOADS = {w.name: w for w in (VerifyExact, SampledRuns, ExactD16)}


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "igo_kit_threads": os.environ.get("IGO_KIT_THREADS"),
    }


def _rounds(workload, seconds, passes=1) -> int:
    """Rounds that fill about ``seconds`` when each runs ``passes`` times.

    ``workload.round_s`` is the operation time of one round on a 2-vCPU Xeon
    at the commit that added the benchmark; it only turns ``--seconds`` into
    a count that stays the same for every commit measured.
    """
    return max(1, round(seconds / (passes * workload.round_s)))


def _layer_intent(workload, metrics) -> list:
    problems = []
    calls = {k[: -len(".calls")]: v for k, v in metrics.items() if k.endswith(".calls")}
    for prefix in workload.must_not_call:
        for name, n in calls.items():
            if name.startswith(prefix) and n:
                problems.append(f"layer intent: {name} called {n} times on {workload.name}")
    for name in workload.must_call:
        if not calls[name]:
            problems.append(f"layer intent: {name} never called on {workload.name}")
    return problems


def _summary(tally: Tally) -> dict:
    out = {
        "rounds": len(tally.round_s),
        "timed_s": tally.timed_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops_per_s": (tally.attempted - tally.failed) / tally.timed_s,
        "round_s": tally.round_s,
        "failed_ops_ratio": tally.failed / tally.attempted,
        "errors": dict(tally.errors),
        "digests": tally.digests,
        "problems": tally.problems,
        "step_samples": len(tally.step_ns),
    }
    if tally.step_ns:
        p50, p90 = np.percentile(np.array(tally.step_ns) / 1e6, [50, 90])
        out["step_p50_ms"] = float(p50)
        out["step_p90_ms"] = float(p90)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    launch_ns = int(os.environ["BENCH_LAUNCH_NS"])

    sys.path.insert(0, str(SRC))
    import igokit
    import igokit.verify

    if not Path(igokit.__file__).resolve().is_relative_to(SRC):
        print(f"igokit imported from {igokit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](igokit, args.seed)
    result = {"setup_s": (time.monotonic_ns() - launch_ns) / 1e9}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["machine"] = _machine()
    if not args.trace:
        tally = Tally()
        for r in range(_rounds(workload, args.seconds)):
            tally.run_round(workload, r)
        result.update(_summary(tally))
    else:
        # Plain and traced passes alternate round by round, so a cold first
        # round biases one ratio, not the median of them.
        plain, traced, trace = Tally(), Tally(), tracer.Tracer()
        for r in range(_rounds(workload, args.seconds, passes=2)):
            plain.run_round(workload, r)
            with trace:
                traced.run_round(workload, r)
        result.update(_summary(plain))
        metrics = trace.layer_metrics()
        metrics["trace_overhead_ratio"] = statistics.median(
            [t / p for t, p in zip(traced.round_s, plain.round_s)])
        result["per_layer"] = metrics
        result["problems"] += traced.problems + _layer_intent(workload, metrics)
        if traced.digests != plain.digests:
            result["problems"].append("traced outputs differ from untraced outputs")
        result["spans"] = trace.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
