"""Byte identity of the trace and stats CSV output.

The trace CSV is compared with a row-by-row ``csv.writer`` reference on
fields that need quoting (delimiters, quotes, line breaks, leading spaces,
empty and non-ASCII strings). The stats CSV of the golden engine cases is
pinned by sha256. Both depend on the interpreter's csv quoting and float
formatting, so CI runs this file on every supported Python version.
"""

import csv
import hashlib
import io
import random
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_golden import GW, PLATFORM, SMT, star

from topomap.engine import SimResult, TraceEvent
from topomap.scenario import WorkloadItem, load_scenario
from topomap.simulator import (
    _TRACE_CHUNK,
    TRACE_HEADER,
    compute_stats,
    simulate,
    stats_to_csv,
    trace_to_csv,
    write_trace_csv,
)

PIECES = [",", '"', "\r", "\n", " ", "", "a", "é", "名", "😀"]


def reference_trace_csv(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for ev in result.trace:
        # the exact decimal of t_ns / 1000, which a float quotient rounds from 2**42 us on
        writer.writerow([f"{Decimal(ev.t_ns).scaleb(-3):.3f}", ev.kind, ev.message_id, ev.endpoint])
    return buf.getvalue()


fields = st.lists(st.sampled_from(PIECES), max_size=6).map("".join)


@st.composite
def traces(draw):
    # a small pool of strings, so most rows repeat strings seen before
    pool = draw(st.lists(fields, min_size=1, max_size=8))
    pick = st.sampled_from(pool)
    times = st.integers(min_value=0, max_value=2**63 - 1)
    events = st.builds(TraceEvent, times, pick, pick, pick)
    return draw(st.lists(events, max_size=40))


@given(traces())
@settings(max_examples=300, deadline=None)
def test_trace_matches_row_by_row_writer(trace):
    result = SimResult(trace, [], [])
    assert trace_to_csv(result) == reference_trace_csv(result)


# from 2**42 us on, a float quotient no longer has the exact three decimals; the writer
# prints the exact decimal on both sides, and for a negative time (never simulated) too
BOUND_NS = 2**42 * 1000
EDGE_TIMES_NS = [0, 999, 1000, BOUND_NS - 1, BOUND_NS, 2**53, 2**63 - 1, -1]


def timed_trace(times) -> SimResult:
    return SimResult([TraceEvent(t, "DELIVER", "t0#0", "sub_1") for t in times], [], [])


@pytest.mark.parametrize("t_ns", EDGE_TIMES_NS)
def test_timestamp_either_side_of_the_integer_bound(t_ns):
    result = timed_trace([t_ns])
    assert trace_to_csv(result) == reference_trace_csv(result)


def test_edge_timestamps_in_one_chunk():
    result = timed_trace(EDGE_TIMES_NS)
    assert trace_to_csv(result) == reference_trace_csv(result)


def test_chunk_straddling_the_integer_bound():
    # a whole chunk below the bound, then a whole chunk across it
    below = range(BOUND_NS - 3 * _TRACE_CHUNK, BOUND_NS - 2 * _TRACE_CHUNK)
    across = range(BOUND_NS - _TRACE_CHUNK // 2, BOUND_NS + _TRACE_CHUNK // 2)
    result = timed_trace([*below, *across])
    assert len(result.trace) == 2 * _TRACE_CHUNK
    assert trace_to_csv(result) == reference_trace_csv(result)


def test_packaged_chain_at_far_timestamps_prints_exact_decimals(data_dir):
    scenario = load_scenario(data_dir / "chain_scenario.json")
    far = (WorkloadItem("camera", "t_cam", count=2, period_us=4e15),)
    result = simulate(replace(scenario, workload=far), PLATFORM)
    assert max(ev.t_ns for ev in result.trace) >= BOUND_NS
    assert trace_to_csv(result) == reference_trace_csv(result)


def long_trace(rows: int) -> SimResult:
    rng = random.Random(7)
    pool = ["".join(rng.choices(PIECES, k=rng.randrange(5))) for _ in range(50)]
    trace = [
        TraceEvent(rng.randrange(2**63), rng.choice(pool), rng.choice(pool), rng.choice(pool))
        for _ in range(rows)
    ]
    return SimResult(trace, [], [])


def test_long_trace_matches_row_by_row_writer():
    result = long_trace(20_001)
    assert trace_to_csv(result) == reference_trace_csv(result)


def test_streamed_trace_memory_is_bounded_by_one_chunk(tmp_path):
    result = long_trace(200_001)
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as out:
            write_trace_csv(result, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    length = len(path.read_text(encoding="utf-8"))
    assert peak < length / 4, (peak, length)


def stats_digest(result) -> str:
    return hashlib.sha256(stats_to_csv(compute_stats(result)).encode()).hexdigest()


@pytest.mark.parametrize(
    "args, digest",
    [
        (("hw", 32, 4, SMT, 40, 5000.0, 3, 0.05), "aed1fd704afb8677d0948ef5343669ccd23fb7fb618147b9f1e18dfa44b87b84"),
        (("sw", 16, 8, GW, 40, 5000.0, 4), "6b358f5ee3cf434a3dcc6083fd844dc07aadd92b902f25f1162c6fa9e21ccb5f"),
        (("sw", 64, 64, SMT, 6, 100.0, 5), "78c3d0a5fc2aa59591d9551dc62343dc2f1cd195e20f9a17b78a9086e636505d"),
    ],
    ids=["hw32_sw4_smt_jitter", "sw16_sw8_gw", "sw64_sw64_smt_saturated"],
)
def test_star_stats(args, digest):
    assert stats_digest(star(*args)) == digest


@pytest.mark.parametrize(
    "policy, digest",
    [
        (SMT, "893dd5399c1c77111b1a28afd8ba10b2685243ccc4e176fdf9698209c63555d9"),
        (GW, "3658856bd1a44e35ad3c02df8463092ebeb84a0c9932996f848c83984488103d"),
    ],
    ids=["smt", "multi-hw-sub"],
)
def test_packaged_chain_stats(data_dir, policy, digest):
    scenario = load_scenario(data_dir / "chain_scenario.json")
    result = simulate(replace(scenario, policy=policy), PLATFORM)
    assert stats_digest(result) == digest
