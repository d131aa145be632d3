"""igo-kit benchmark: three workloads, end-to-end metrics and a layer trace.

Usage (from the root of a checkout)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds 1..60] [--trace 0|1]

Without ``--workload`` every workload runs, one after another, and the
metric names in the JSON line carry a ``<workload>.`` prefix; with
``--workload`` they are the names ``BENCHMARK.json`` declares. Each workload
runs in a fresh interpreter (``bench/workload.py``) started from this process,
with ``PYTHONPATH`` set to the checkout's ``src``, the verify thread pool
bounded by ``IGO_KIT_THREADS`` = the number of usable CPUs and one BLAS
thread.

``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``) sets how many
rounds a workload runs, through the workload's nominal round time; the count
does not depend on measured time, so every commit times the same inputs.

``--trace 0`` measures end-to-end metrics. ``setup_s`` is the median of
several starts of the workload process, each timed from just before the
process is launched to the end of workload set-up. ``--trace 1`` runs half
as many rounds, each untraced and then traced, and reports the per-layer
metrics. Metrics print one per line by name with their unit; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when an output check failed and 2 when the
checkout holds no igokit sources. A result file per run is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-exact", "sampled-runs", "exact-d16")
SETUP_REPEATS = 5
# All processes of one workload together; a run must end within 180 s.
WORKLOAD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
from tracer import per_layer_units  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "failed_ops_ratio": "ratio",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Reported in the JSON line: never zero on any workload.
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def _child(workload, seed, seconds, trace, deadline, setup_only=False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["IGO_KIT_THREADS"] = str(len(os.sched_getaffinity(0)))
    # One BLAS thread: a parallel BLAS call waits for the slower of two
    # shared cores, and sampled-runs spread wider from run to run with two.
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env["BENCH_LAUNCH_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {WORKLOAD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace) -> dict:
    # Set-up is timed in several processes, before and after the measured
    # one, so that the median sees more than one moment of the machine.
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    extra = 0 if trace else SETUP_REPEATS - 1
    setups = [_child(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
              for _ in range(extra // 2)]
    result = _child(workload, seed, seconds, trace, deadline)
    setups.append(result["setup_s"])
    setups += [_child(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
               for _ in range(extra - extra // 2)]
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return result


def _print_result(result) -> dict:
    """Print one workload's metrics; return the JSON-line metrics."""
    w = result["workload"]
    m = result["machine"]
    print(f"# {w}: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']!r} blas_threads={m['blas_threads']} "
          f"igo_kit_threads={m['igo_kit_threads']}")
    notes = {
        "setup_s": f"median of {len(result['setup_samples'])} starts",
        "ops_per_s": f"{result['attempted'] - result['failed']} ops in "
                     f"{result['timed_s']:.2f} s, {result['rounds']} rounds",
        "failed_ops_ratio": f"{result['failed']} of {result['attempted']}",
        "step_p50_ms": f"n={result['step_samples']}",
        "step_p90_ms": f"n={result['step_samples']}",
    }
    for name, unit in END_TO_END_UNITS.items():
        if name in result and not (result["trace"] and name == "setup_s"):
            print(f"{w:<13} {name:<44} {result[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    for error, n in result["errors"].items():
        print(f"{w:<13} error x{n}: {error}")
    digest = json.dumps(result["digests"], sort_keys=True)
    print(f"{w:<13} outputs_sha256 {hashlib.sha256(digest.encode()).hexdigest()}")
    for problem in result["problems"]:
        print(f"{w:<13} CHECK FAILED: {problem}")
    if result["trace"]:
        units = per_layer_units()
        for name, value in result["per_layer"].items():
            print(f"{w:<13} {name:<44} {value:>14.6g} {units[name]}")
        print(f"{w:<13} spans written: {result['spans']}")
        return {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
    return {k: {"value": result[k], "unit": END_TO_END_UNITS[k]} for k in GATED}


def _seconds(text) -> int:
    # Longer runs would not fit WORKLOAD_TIMEOUT_S.
    value = int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError("must be a whole number from 1 to 60")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "igokit" / "__init__.py").is_file():
        print(f"bench: no igokit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    (BENCH / "out").mkdir(exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        out = BENCH / "out" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
        printed = _print_result(result)
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if args.workload else f"{name}."
        metrics.update({prefix + k: v for k, v in printed.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
