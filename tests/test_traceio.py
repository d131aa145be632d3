import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import AlgorithmConfig, InvalidInputError, run
from igokit.traceio import TRACE_HEADER, TraceRecord, read_trace, render_trace, trace_records

RECORDS = [
    TraceRecord(step=1, eta=(0.25, 0.75), best_f=1.0, emp_quantile_q=2.0,
                j_estimate=None, kl_prev=0.125, elapsed_ns=0),
    TraceRecord(step=2, eta=(0.5, 0.5), best_f=0.0, emp_quantile_q=1.5,
                j_estimate=1.0625, kl_prev=0.0, elapsed_ns=7),
]
CSV = render_trace(RECORDS, "csv")
JSONL = render_trace(RECORDS, "jsonl")


def read_text(text):
    fd, path = tempfile.mkstemp(suffix=".trace")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        return read_trace(path)
    finally:
        os.unlink(path)


def test_both_formats_round_trip():
    assert read_text(CSV) == RECORDS
    assert read_text(JSONL) == RECORDS


@pytest.mark.parametrize(
    "text",
    [
        f"{TRACE_HEADER}\nstep\n1,abc\n",  # unparsable value
        f"{TRACE_HEADER}\nstep,x\nabc,1\n",
        CSV.replace("step,", "stop,"),  # no step column
        CSV.rsplit(",", 1)[0] + "\n",  # a row one cell short
        f"{TRACE_HEADER}\n",  # no column line
        JSONL.replace('"eta":[0.25,0.75],', ""),  # a row without eta
        '{"step": 1, "eta": 5}\n',
        "[1, 2]\n",
        "not json at all\n",
        JSONL.replace('"elapsed_ns":7', '"elapsed_ns":Infinity'),  # int overflow
    ],
)
def test_malformed_input_is_invalid_input(text):
    with pytest.raises(InvalidInputError, match="malformed trace"):
        read_text(text)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_fuzzed_text_parses_or_is_invalid_input(text):
    try:
        records = read_text(text)
    except InvalidInputError:
        return
    assert all(isinstance(r, TraceRecord) for r in records)


@given(st.sampled_from([CSV, JSONL]), st.data())
@settings(max_examples=300, deadline=None)
def test_corrupted_traces_parse_or_are_invalid_input(valid, data):
    start = data.draw(st.integers(0, len(valid)))
    stop = data.draw(st.integers(start, len(valid)))
    text = valid[:start] + data.draw(st.text(max_size=8)) + valid[stop:]
    try:
        records = read_text(text)
    except InvalidInputError:
        return
    assert all(isinstance(r, TraceRecord) for r in records)


# -0.0, subnormals, the extremes of the exponent range and a few non-finite
# values, beside whatever floats hypothesis draws
trace_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
                     1e-300, -1.7976931348623157e308, 1e22, 0.1, 1.0 / 3.0, float("inf")]),
)


@st.composite
def trace_rows(draw, floats=trace_floats):
    width = draw(st.integers(0, 6))
    record = st.builds(
        TraceRecord,
        step=st.integers(0, 10**9),
        eta=st.lists(floats, min_size=width, max_size=width).map(tuple),
        best_f=floats,
        emp_quantile_q=floats,
        j_estimate=st.none() | floats,
        kl_prev=floats,
        elapsed_ns=st.integers(0, 2**63 - 1),
        weight_entropy=st.none() | floats,
    )
    return draw(st.lists(record, min_size=1, max_size=5))


@given(trace_rows())
@settings(max_examples=300, deadline=None)
def test_csv_row_is_the_per_value_join(records):
    def row(r):
        j_estimate = "" if r.j_estimate is None else f"{r.j_estimate:.17g}"
        floats = [*r.eta, r.best_f, r.emp_quantile_q]
        return ",".join([str(r.step), *(f"{v:.17g}" for v in floats), j_estimate,
                         f"{r.kl_prev:.17g}", str(r.elapsed_ns)])

    assert render_trace(records, "csv").split("\n")[2:-1] == [row(r) for r in records]


@given(trace_rows(trace_floats.filter(lambda v: v == v)), st.sampled_from(["csv", "jsonl"]))
@settings(max_examples=300, deadline=None)
def test_drawn_rows_round_trip_without_their_entropy(records, fmt):
    # v1 has no entropy column, so a row reads back with none; NaN is left
    # out only because it equals nothing
    expected = [replace(r, weight_entropy=None) for r in records]
    assert read_text(render_trace(records, fmt)) == expected


def test_a_record_of_another_width_is_refused():
    ragged = [RECORDS[0], TraceRecord(3, (0.5,), 0.0, 0.0, None, 0.0, 0)]
    with pytest.raises(InvalidInputError, match="1 eta entries in a trace of 2"):
        render_trace(ragged, "csv")


def test_reading_holds_one_line_at_a_time():
    # beyond the records it returns, a read holds a line, not the whole text
    rng = np.random.default_rng(0)
    records = [TraceRecord(i, tuple(rng.random(500).tolist()), 1.0, 2.0, None, 0.5, 0)
               for i in range(200)]
    text = render_trace(records, "csv")
    fd, path = tempfile.mkstemp(suffix=".trace")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        # only the read is traced: writing the 2 MB text is not the reader's
        tracemalloc.start()
        try:
            got = read_trace(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        os.unlink(path)
    assert got == records
    assert peak - kept <= len(text) / 4


def test_records_hold_eta_packed():
    # a run's steps are the records, each eta packed at 8 bytes per value,
    # and the v1 view shares them: it keeps no copy of any eta value
    config = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=2000, lam=10,
                             q=0.3, dt=0.2, max_steps=10, seed=1)
    trace = run(config)
    assert all(isinstance(s, TraceRecord) and s.weight_entropy > 0.0 for s in trace.steps)
    tracemalloc.start()
    try:
        records = trace_records(trace)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    values = sum(len(r.eta) for r in records)
    assert values == config.max_steps * config.dim
    assert kept < values
    assert all(r.eta is s.eta for r, s in zip(records, trace.steps))


def test_records_compare_by_value_and_have_no_hash():
    packed = TraceRecord(1, np.array([0.25, 0.75]), 1.0, 2.0, None, 0.125, 0)
    assert packed == RECORDS[0]
    assert packed != TraceRecord(1, (0.25, 0.5), 1.0, 2.0, None, 0.125, 0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(packed)
