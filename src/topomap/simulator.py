"""Running scenarios and reporting their results.

``simulate`` builds the engine, checks the scenario and runs it; everything
else here calls it (``cell_times``, the comparisons, ``run_chain_scenario``)
or writes what it returns (trace and stats CSV). ``simulate`` is called only
from here and from ``topomap.cli``, so a caller that swaps it there sees every run.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import defaultdict
from dataclasses import replace
from itertools import product
from operator import itemgetter, mul
from typing import TextIO

from .engine import SimResult, _Sim
from .mapping import MappingPolicy, topic_endpoints
from .platform_model import PlatformModel
from .scenario import Scenario, ScenarioError, chain_relays, check_timing, check_workload, star_scenario
from .scenario import load_scenario  # noqa: F401 -- tests/test_acceptance.py and perfbench's spans read it here
from .timing import NS_PER_US


def simulate(scenario: Scenario, platform: PlatformModel, seed: int | None = None) -> SimResult:
    """Run the scenario's workload, and every hop of its chain, on ``platform``; ``seed`` overrides the scenario's."""
    check_timing(scenario)  # before ``chain_relays`` turns compute times into ns
    relays = chain_relays(scenario)[0] if scenario.chain else None
    sim = _Sim(
        scenario.graph,
        scenario.node_mapping,
        scenario.resolve_mapping(platform),
        platform,
        scenario.seed if seed is None else seed,
        scenario.jitter_pct,
        relays,
    )
    check_workload(scenario.graph, scenario.workload)
    return sim.run(scenario.workload)


# -- trace and stats output --------------------------------------------------

TRACE_HEADER = ("timestamp_us", "kind", "message_id", "endpoint")
STATS_HEADER = ("topic", "subscriber", "count", "mean_us", "stddev_us", "min_us", "max_us")


# rows joined per write: a chunk's row strings and their join are all the writer holds,
# and below 8192 rows the chunk size does not change the writer's speed
_TRACE_CHUNK = 2048
# a timestamp's three decimals by its remainder in ns, "000" to "999"; joining digit
# triples takes a tenth of the import time that formatting each number does
_MILLIS = tuple(map("".join, product("0123456789", repeat=3)))
_t_ns = itemgetter(0)


class _CsvFields(dict):
    """A string's CSV field, quoted by the csv module once per distinct string."""

    def __init__(self):
        self._buf = io.StringIO()
        self._writerow = csv.writer(self._buf, lineterminator="\n").writerow

    def __missing__(self, s: str) -> str:
        buf = self._buf
        buf.seek(0)
        buf.truncate()
        self._writerow((s, ""))
        field = self[s] = buf.getvalue()[:-2]  # drop the empty second field's ",\n"
        return field


def write_trace_csv(result: SimResult, out: TextIO) -> None:
    """Write the trace CSV to the text stream ``out``, one chunk of rows per write.

    A timestamp is the exact decimal of ``t / NS_PER_US``, printed from the integer
    quotient and remainder. A chunk that holds a negative time (the engine never
    makes one) prints its sign, then the quotient and remainder of ``abs(t)``.
    """
    q = _CsvFields()
    trace = result.trace
    out.write(",".join(q[h] for h in TRACE_HEADER) + "\n")
    for i in range(0, len(trace), _TRACE_CHUNK):
        chunk = trace[i : i + _TRACE_CHUNK]
        if 0 <= min(map(_t_ns, chunk)):
            rows = [f"{t // NS_PER_US}.{_MILLIS[t % NS_PER_US]},{q[k]},{q[m]},{q[e]}\n" for t, k, m, e in chunk]
        else:
            rows = [
                f"{'-' * (t < 0)}{abs(t) // NS_PER_US}.{_MILLIS[abs(t) % NS_PER_US]},{q[k]},{q[m]},{q[e]}\n"
                for t, k, m, e in chunk
            ]
        out.write("".join(rows))


def trace_to_csv(result: SimResult) -> str:
    """The trace CSV as one string: ``write_trace_csv`` into memory."""
    buf = io.StringIO()
    write_trace_csv(result, buf)
    return buf.getvalue()


def compute_stats(result: SimResult) -> list[dict]:
    """Per-(topic, subscriber) latency stats from the exact integer nanosecond latencies."""
    groups: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for topic, sub, _, t_pub, t_deliver in result.deliveries:
        groups[topic, sub].append(t_deliver - t_pub)
    rows = []
    for (topic, sub), deltas in sorted(groups.items()):
        n = len(deltas)
        s1 = sum(deltas)
        s2 = sum(map(mul, deltas, deltas))
        rows.append(
            {
                "topic": topic,
                "subscriber": sub,
                "count": n,
                "mean_us": statistics.fmean([d / NS_PER_US for d in deltas]),
                "stddev_us": math.sqrt((n * s2 - s1 * s1) / (n * (n - 1))) / NS_PER_US if n > 1 else 0.0,
                "min_us": min(deltas) / NS_PER_US,
                "max_us": max(deltas) / NS_PER_US,
            }
        )
    return rows


def _table_csv(header, rows) -> str:
    """A CSV table: floats to three decimals, ``None`` as an empty cell, anything else as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else (f"{v:.3f}" if isinstance(v, float) else v) for v in row])
    return buf.getvalue()


def stats_to_csv(rows: list[dict]) -> str:
    return _table_csv(STATS_HEADER, ([r[k] for k in STATS_HEADER] for r in rows))


# -- policy comparison --------------------------------------------------------


def _fanout_latencies(result: SimResult, topic: str, subs: set[str]) -> list[float]:
    """Per-message time until the last of ``subs`` has the message, in us."""
    per_seq: dict[int, dict[str, float]] = {}
    for d in result.deliveries:
        if d.topic == topic and d.subscriber in subs:
            per_seq.setdefault(d.seq, {})[d.subscriber] = d.latency_us
    out = []
    for seq in sorted(per_seq):
        if set(per_seq[seq]) == subs:
            out.append(max(per_seq[seq].values()))
    return out


def cell_times(
    scenario: Scenario, platform: PlatformModel, policy: MappingPolicy
) -> tuple[float | None, float | None]:
    """(mean hw-side, mean sw-side) fan-out completion times for one cell."""
    result = simulate(replace(scenario, comm_mapping=None, policy=policy), platform)
    (topic_id,) = scenario.graph.topic_ids()  # a star has exactly one topic
    endpoints = topic_endpoints(scenario.graph, scenario.node_mapping, topic_id)
    hw_subs, sw_subs = set(endpoints.hw_subs), set(endpoints.sw_subs)
    t_hw = statistics.fmean(_fanout_latencies(result, topic_id, hw_subs)) if hw_subs else None
    t_sw = statistics.fmean(_fanout_latencies(result, topic_id, sw_subs)) if sw_subs else None
    return t_hw, t_sw


def compare_grid(
    scenario: Scenario,
    platform: PlatformModel,
    policy_a: MappingPolicy,
    policy_b: MappingPolicy,
) -> tuple[list[str], list[list]]:
    """Sweep the grid; both policies see identical seeds per cell."""
    grid = scenario.grid
    if grid is None:
        raise ScenarioError("scenario has no grid descriptor")
    header = [
        "publisher_kind",
        "size_bytes",
        "hw_subs",
        f"t_hw_us_{policy_a.value}",
        f"t_sw_us_{policy_a.value}",
        f"t_hw_us_{policy_b.value}",
        f"t_sw_us_{policy_b.value}",
        "speedup_hw",
        "speedup_sw",
    ]
    rows = []
    cell = 0
    for size in grid.sizes:
        for n_hw in grid.hw_sub_counts:
            cell += 1
            cell_scn = star_scenario(
                grid.publisher_kind,
                n_hw,
                grid.sw_sub_count,
                size,
                reps=grid.reps,
                period_us=grid.period_us,
                seed=scenario.seed + cell,
                jitter_pct=scenario.jitter_pct,
            )
            a_hw, a_sw = cell_times(cell_scn, platform, policy_a)
            b_hw, b_sw = cell_times(cell_scn, platform, policy_b)
            rows.append(
                [
                    grid.publisher_kind,
                    size,
                    n_hw,
                    a_hw,
                    a_sw,
                    b_hw,
                    b_sw,
                    (a_hw / b_hw) if a_hw and b_hw else None,
                    (a_sw / b_sw) if a_sw and b_sw else None,
                ]
            )
    return header, rows


def compare_means(
    scenario: Scenario,
    platform: PlatformModel,
    policy_a: MappingPolicy,
    policy_b: MappingPolicy,
) -> tuple[list[str], list[list]]:
    """Mean delivery latency per (topic, subscriber) under each policy; for scenarios without a grid."""
    means = []
    for policy in (policy_a, policy_b):
        result = simulate(replace(scenario, comm_mapping=None, policy=policy), platform)
        means.append({(r["topic"], r["subscriber"]): r["mean_us"] for r in compute_stats(result)})
    header = ["topic", "subscriber", f"mean_us_{policy_a.value}", f"mean_us_{policy_b.value}", "speedup"]
    rows = []
    for topic, sub in sorted(set(means[0]) | set(means[1])):
        a, b = means[0].get((topic, sub)), means[1].get((topic, sub))
        rows.append([topic, sub, a, b, (a / b) if a and b else None])
    return header, rows


def compare_to_csv(header: list[str], rows: list[list]) -> str:
    return _table_csv(header, rows)


# -- chains -------------------------------------------------------------------


def run_chain_scenario(
    scenario: Scenario, platform: PlatformModel, chain: list[str], seed: int | None = None
) -> tuple[float, float]:
    """End-to-end latency of ``chain``, run as the scenario's own, over its workload: (mean, stddev) in us."""
    if not chain:
        raise ScenarioError("chain needs at least one node")
    if len(chain) == 1 and chain[0] in scenario.graph.nodes:
        return 0.0, 0.0  # source and sink coincide, nothing traverses a topic
    scenario = replace(scenario, chain=tuple(chain))
    deliveries = simulate(scenario, platform, seed=seed).deliveries  # checks the scenario and its chain
    _, first_topic, last_topic = chain_relays(scenario)
    # only the chain's source publishes the first hop topic, so its seqs name the chain's messages
    t_pub = {d.seq: d.t_pub_ns for d in deliveries if d.topic == first_topic}
    t_end = {d.seq: d.t_deliver_ns for d in deliveries if d.topic == last_topic and d.subscriber == chain[-1]}
    lats = [(t_end[s] - t_pub[s]) / NS_PER_US for s in sorted(t_end) if s in t_pub]
    if not lats:
        raise ScenarioError("chain produced no end-to-end deliveries")
    return statistics.fmean(lats), (statistics.stdev(lats) if len(lats) > 1 else 0.0)
