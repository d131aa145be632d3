import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import InvalidInputError
from igokit.traceio import TRACE_HEADER, TraceRecord, read_trace, render_trace

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
