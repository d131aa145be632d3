"""Trace and summary serialization.

The trace schema is frozen and versioned by the leading comment line
``# igo-kit trace v1``. Columns, in order: ``step``, the flattened
expectation-parameter snapshot ``eta_0 .. eta_{k-1}`` (fixed layout), then
``best_f``, ``emp_quantile_q``, ``j_estimate`` (empty when not computed),
``kl_prev``, ``elapsed_ns``. Floats are written with 17 significant digits so
files parse back bit-exactly; a csv row is one ``%``-format of its values,
and a record whose eta width differs from the first record's is refused.

A ``TraceRecord`` is the one record of a step: ``run`` appends it to
``trace.steps`` as the step is taken, and :func:`trace_records` is its v1
view. The in-memory step keeps its real ``elapsed_ns`` and its
``weight_entropy``; v1 writes neither. Repeated runs with one seed must
produce byte-identical files, so the view sets ``elapsed_ns`` to 0 unless
the run's ``timing`` flag is set, and it drops the entropy, which has no
v1 column. The view's records share each step's eta.

Both formats and both sinks share one line source. :func:`render_trace`
holds one copy of the text, grown in place; :func:`write_trace` holds one
row at a time and never the whole text.

A record holds its eta snapshot packed, as an ``array('d')`` of 8 bytes per
value rather than a tuple of Python floats (about 32). Records compare by
value and are not hashable.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass, replace
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
    """One step of a run, and one row of a trace file.

    ``eta`` is held packed, as an ``array('d')`` of 8 bytes per value;
    any sequence of floats given for it is converted. Records compare by
    value, so a record built from a tuple equals the same record read back
    from a file. An array is mutable, so records have no hash.
    ``weight_entropy`` is the entropy of the weights the step's rule used;
    the v1 format does not write it, so a record read back has None.
    """

    step: int
    eta: array
    best_f: float
    emp_quantile_q: float
    j_estimate: Optional[float]
    kl_prev: float
    elapsed_ns: int
    weight_entropy: Optional[float] = None

    __hash__ = None

    def __post_init__(self):
        if not (isinstance(self.eta, array) and self.eta.typecode == "d"):
            object.__setattr__(self, "eta", array("d", self.eta))


def trace_records(trace) -> list:
    """The v1 view of a trace's steps: what a written file reads back as.

    ``elapsed_ns`` is 0 unless the run's ``timing`` flag is set, and the
    entropy is dropped. Each view shares its step's eta, so no value is
    copied.
    """
    timing = trace.config.timing
    return [replace(s, elapsed_ns=s.elapsed_ns if timing else 0, weight_entropy=None)
            for s in trace.steps]


def _trace_lines(records, fmt: str, eta_dim: Optional[int]):
    """The trace's lines in order, each ending in ``"\n"``: for csv the
    header and the column line, then one row per record. Every record's
    width and the format are checked before the first line is yielded."""
    if records:
        width = len(records[0].eta)
    elif eta_dim is None:
        raise InvalidInputError("eta_dim is required to render an empty trace")
    else:
        width = eta_dim
    for r in records:
        if len(r.eta) != width:
            raise InvalidInputError(
                f"step {r.step}: {len(r.eta)} eta entries in a trace of {width}"
            )
    if fmt == "csv":
        yield TRACE_HEADER + "\n"
        yield ",".join(
            ["step"]
            + [f"eta_{i}" for i in range(width)]
            + ["best_f", "emp_quantile_q", "j_estimate", "kl_prev", "elapsed_ns"]
        ) + "\n"
        # One format per row: "%.17g" % x is f"{x:.17g}", "%s" is str().
        row = "%s," + "%.17g," * width + "%.17g,%.17g,%s,%.17g,%s\n"
        for r in records:
            j_estimate = "" if r.j_estimate is None else _fmt(r.j_estimate)
            yield row % (r.step, *r.eta, r.best_f, r.emp_quantile_q, j_estimate,
                         r.kl_prev, r.elapsed_ns)
    elif fmt == "jsonl":
        # json writes a float's shortest repr, which parses back to the same
        # float, as a 17-digit one would; float() turns ints into floats,
        # and a packed eta holds floats already.
        for r in records:
            obj = {
                "step": r.step,
                "eta": r.eta.tolist(),
                "best_f": float(r.best_f),
                "emp_quantile_q": float(r.emp_quantile_q),
                "j_estimate": None if r.j_estimate is None else float(r.j_estimate),
                "kl_prev": float(r.kl_prev),
                "elapsed_ns": r.elapsed_ns,
            }
            yield json.dumps(obj, separators=(",", ":")) + "\n"
    else:
        raise InvalidInputError(f"unknown trace format {fmt!r}")


def render_trace(records, fmt: str = "csv", eta_dim: Optional[int] = None) -> str:
    """Render records to the csv or jsonl wire format.

    The text grows by ``+=`` on one local string, which CPython resizes in
    place, so rendering holds one copy of the text, not its rows beside it.
    Other interpreters may copy the text at each ``+=`` (PEP 8's caveat).
    """
    text = ""
    for line in _trace_lines(records, fmt, eta_dim):
        text += line
    return text


def write_trace(records, path, fmt: str = "csv", eta_dim: Optional[int] = None) -> None:
    """Write the text :func:`render_trace` gives to ``path``, a line at a
    time, never holding the whole text. A trace that is refused leaves no
    file and an existing file unchanged: every record is checked before
    the file is opened."""
    lines = _trace_lines(records, fmt, eta_dim)
    first = next(lines, "")  # the checks run before the first line
    with open(path, "w", newline="\n") as fh:
        fh.write(first)
        fh.writelines(lines)


def read_trace(path) -> list:
    """Parse a trace file (either format) back into records, losslessly.

    Malformed content (an unparsable value, a missing column or key, text
    that is neither a trace csv nor JSON lines) raises ``InvalidInputError``.
    The file is read a line at a time, never held whole as text beside the
    records parsed from it.
    """
    try:
        with open(path) as fh:
            lines = (ln for ln in (raw.rstrip("\n") for raw in fh) if ln != "")
            first = next(lines, None)
            if first == TRACE_HEADER:
                header = next(lines).split(",")
                eta_cols = [c for c in header if c.startswith("eta_")]
                rows = (dict(zip(header, ln.split(","))) for ln in lines)
                return [_record(row, [row[c] for c in eta_cols], "") for row in rows]
            lines = itertools.chain(() if first is None else (first,), lines)
            return [_record(obj, obj["eta"], None) for obj in map(json.loads, lines)]
    except (KeyError, OverflowError, StopIteration, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: malformed trace: {exc!r}") from None


def _record(row, eta, missing) -> TraceRecord:
    """One record from a parsed csv row or JSON object; ``missing`` is how
    the format writes an absent ``j_estimate``."""
    j_estimate = row["j_estimate"]
    return TraceRecord(
        step=int(row["step"]),
        eta=array("d", map(float, eta)),
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
