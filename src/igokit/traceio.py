"""Trace and summary serialization.

The trace schema is frozen and versioned by the leading comment line
``# igo-kit trace v1``. Columns, in order: ``step``, the flattened
expectation-parameter snapshot ``eta_0 .. eta_{k-1}`` (fixed layout), then
``best_f``, ``emp_quantile_q``, ``j_estimate`` (empty when not computed),
``kl_prev``, ``elapsed_ns``. Floats are written with 17 significant digits so
files parse back bit-exactly.

Repeated runs with one seed must produce byte-identical files, so the
``elapsed_ns`` column serializes as 0 unless the run's ``timing`` flag is set;
the in-memory trace always keeps real wall-clock values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError

__all__ = [
    "TRACE_HEADER",
    "TraceRecord",
    "trace_records",
    "render_trace",
    "write_trace",
    "read_trace",
    "summary_dict",
    "write_summary",
]

TRACE_HEADER = "# igo-kit trace v1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class TraceRecord:
    """One serialized trace row."""

    step: int
    eta: tuple
    best_f: float
    emp_quantile_q: float
    j_estimate: Optional[float]
    kl_prev: float
    elapsed_ns: int


def trace_records(trace) -> list:
    """Serializable rows of an in-memory trace, honouring the timing flag."""
    timing = trace.config.timing
    return [
        TraceRecord(
            step=s.step,
            eta=tuple(float(v) for v in s.eta),
            best_f=s.best_f,
            emp_quantile_q=s.emp_quantile,
            j_estimate=s.j_estimate,
            kl_prev=s.kl_prev,
            elapsed_ns=s.elapsed_ns if timing else 0,
        )
        for s in trace.steps
    ]


def _eta_width(records, eta_dim: Optional[int]) -> int:
    if records:
        return len(records[0].eta)
    if eta_dim is None:
        raise InvalidInputError("eta_dim is required to render an empty trace")
    return eta_dim


def render_trace(records, fmt: str = "csv", eta_dim: Optional[int] = None) -> str:
    """Render records to the csv or jsonl wire format."""
    width = _eta_width(records, eta_dim)
    if fmt == "csv":
        cols = (
            ["step"]
            + [f"eta_{i}" for i in range(width)]
            + ["best_f", "emp_quantile_q", "j_estimate", "kl_prev", "elapsed_ns"]
        )
        lines = [TRACE_HEADER, ",".join(cols)]
        for r in records:
            row = (
                [str(r.step)]
                + [_fmt(v) for v in r.eta]
                + [
                    _fmt(r.best_f),
                    _fmt(r.emp_quantile_q),
                    "" if r.j_estimate is None else _fmt(r.j_estimate),
                    _fmt(r.kl_prev),
                    str(r.elapsed_ns),
                ]
            )
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        lines = []
        for r in records:
            obj = {
                "step": r.step,
                "eta": [float(_fmt(v)) for v in r.eta],
                "best_f": float(_fmt(r.best_f)),
                "emp_quantile_q": float(_fmt(r.emp_quantile_q)),
                "j_estimate": None if r.j_estimate is None else float(_fmt(r.j_estimate)),
                "kl_prev": float(_fmt(r.kl_prev)),
                "elapsed_ns": r.elapsed_ns,
            }
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")
    raise InvalidInputError(f"unknown trace format {fmt!r}")


def write_trace(records, path, fmt: str = "csv", eta_dim: Optional[int] = None) -> None:
    text = render_trace(records, fmt=fmt, eta_dim=eta_dim)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def read_trace(path) -> list:
    """Parse a trace file (either format) back into records, losslessly.

    Malformed content (an unparsable value, a missing column or key, text
    that is neither a trace csv nor JSON lines) raises ``InvalidInputError``.
    """
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().split("\n") if ln != ""]
        if lines and lines[0] == TRACE_HEADER:
            header = lines[1].split(",")
            eta_cols = [c for c in header if c.startswith("eta_")]
            rows = (dict(zip(header, ln.split(","))) for ln in lines[2:])
            return [_record(row, [row[c] for c in eta_cols], "") for row in rows]
        return [_record(obj, obj["eta"], None) for obj in map(json.loads, lines)]
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: malformed trace: {exc!r}") from None


def _record(row, eta, missing) -> TraceRecord:
    """One record from a parsed csv row or JSON object; ``missing`` is how
    the format writes an absent ``j_estimate``."""
    j_estimate = row["j_estimate"]
    return TraceRecord(
        step=int(row["step"]),
        eta=tuple(float(v) for v in eta),
        best_f=float(row["best_f"]),
        emp_quantile_q=float(row["emp_quantile_q"]),
        j_estimate=None if j_estimate == missing else float(j_estimate),
        kl_prev=float(row["kl_prev"]),
        elapsed_ns=int(row["elapsed_ns"]),
    )


def summary_dict(trace) -> dict:
    """Stable-keyed run summary: outcome plus a config echo."""
    final_eta = [] if trace.final_eta is None else [float(v) for v in trace.final_eta]
    return {
        "final_eta": final_eta,
        "best_fitness": trace.best_fitness,
        "steps": len(trace.steps),
        "seed": trace.config.seed,
        "stop_reason": trace.stop_reason,
        "halvings": trace.halvings,
        "config": trace.config.to_dict(),
    }


def write_summary(trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(summary_dict(trace), fh, indent=2, sort_keys=False)
        fh.write("\n")
