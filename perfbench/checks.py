"""Output checks. Each returns a list of problems; empty means the output is right.

Checks read the graph through its plain edge tuples, never through
topomap's lookup methods, so a traced pass does not count them.
"""

from __future__ import annotations

import csv
import io


def check_sim(scenario, platform, result) -> list[str]:
    """Engine invariants of one simulation.

    Each published (topic, seq) reaches every subscriber of its topic exactly
    once, no latency is negative, trace time never decreases, and no MEMIF
    interval moves more bytes than the bandwidth allows.
    """
    problems = []
    subscribers: dict[str, set[str]] = {}
    for topic, node in scenario.graph.sub_edges:
        subscribers.setdefault(topic, set()).add(node)
    got: dict[tuple[str, int], list[str]] = {}
    for d in result.deliveries:
        got.setdefault((d.topic, d.seq), []).append(d.subscriber)
        if d.t_deliver_ns < d.t_pub_ns:
            problems.append(f"negative latency {d}")
    for (topic, seq), subs in got.items():
        if len(subs) != len(set(subs)) or set(subs) != subscribers.get(topic, set()):
            problems.append(f"{topic}#{seq} delivered to {sorted(subs)}")
    for item in scenario.workload:
        seqs = {seq for topic, seq in got if topic == item.topic}
        if seqs != set(range(item.count)):
            problems.append(f"{item.topic}: {len(seqs)} of {item.count} messages delivered")
    if any(b.t_ns < a.t_ns for a, b in zip(result.trace, result.trace[1:])):
        problems.append("trace time decreases")
    bps = platform.memif_bandwidth_bytes_per_s
    for t0, t1, flows, nbytes in result.memif_segments:
        if nbytes > bps * (t1 - t0) / 1e9 * (1 + 1e-9):
            problems.append(f"MEMIF interval {t0}-{t1} ns moved {nbytes} bytes")
    return problems[:5]


def check_star_outputs(spec: dict, result, trace_path, stats_path) -> list[str]:
    """CLI simulate outputs on a generated star, and the MEMIF saturation guard."""
    problems = []
    with open(trace_path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(result.trace):
        problems.append(f"trace CSV has {rows} rows for {len(result.trace)} events")
    with open(stats_path, encoding="utf-8", newline="") as fh:
        stats = list(csv.DictReader(fh))
    subs = {e["node"] for e in spec["graph"]["subscribes"]}
    if {r["subscriber"] for r in stats} != subs:
        problems.append("stats CSV does not list every subscriber")
    bad = [r for r in stats if int(r["count"]) != spec["messages"] or float(r["min_us"]) < 0]
    if bad:
        problems.append(f"{len(bad)} wrong stats rows, first {bad[0]}")
    # Below saturation every message's pulls drain before the next message,
    # so the flow count peaks the same early and late in the run.
    segments = result.memif_segments
    if segments:
        half = result.trace[-1].t_ns / 2
        early = max((f for t0, _, f, _ in segments if t0 < half), default=0)
        late = max((f for t0, _, f, _ in segments if t0 >= half), default=0)
        if late > early:
            problems.append(f"MEMIF backlog grows: max flows {early} early, {late} late")
    return problems


def topic_classes(graph_doc: dict) -> dict[str, tuple[str, int]]:
    """topic -> (ALL_SW | ALL_HW | MIXED, number of HW subscribers)."""
    placement = graph_doc["node_mapping"]
    endpoints: dict[str, set[str]] = {t["id"]: set() for t in graph_doc["topics"]}
    hw_subs = dict.fromkeys(endpoints, 0)
    for e in graph_doc["publishes"]:
        endpoints[e["topic"]].add(e["node"])
    for e in graph_doc["subscribes"]:
        endpoints[e["topic"]].add(e["node"])
        hw_subs[e["topic"]] += placement[e["node"]] == "HW"
    out = {}
    for topic, nodes in endpoints.items():
        sides = {placement[n] for n in nodes}
        cls = "MIXED" if len(sides) == 2 else f"ALL_{sides.pop()}"
        out[topic] = (cls, hw_subs[topic])
    return out


def check_map_report(graph_doc: dict, classes: dict, policy: str, report: dict) -> list[str]:
    """The README policy table, and the crossing counts it implies."""
    problems = []
    mapping = report["comm_mapping"]
    if set(mapping) != set(classes):
        return ["report does not map every topic"]
    for topic, (cls, k) in classes.items():
        impl = mapping[topic]
        if policy == "smt" or cls == "ALL_SW":
            want = {"SMT"}
        elif cls == "ALL_HW":
            want = {"HMT"}
        elif policy == "multi-hw-sub":
            want = {"GW" if k >= 2 else "SMT"}
        else:  # cost: a mixed topic without HW subscribers has nothing to amortize
            want = {"SMT", "GW"} if k else {"SMT"}
        if impl not in want:
            problems.append(f"{policy}: {cls} topic {topic} with {k} HW subscribers mapped to {impl}")
    hw = {n for n, p in graph_doc["node_mapping"].items() if p == "HW"}
    all_smt = sum(e["node"] in hw for e in graph_doc["publishes"] + graph_doc["subscribes"])
    base = report["boundary_crossings_baseline_all_smt"]
    classified = report["boundary_crossings_classified_smt_hmt"]
    if base != all_smt or classified > base:
        problems.append(f"crossings all-SMT {base} (want {all_smt}), classified {classified}")
    if policy == "smt" and report["boundary_crossings"] != base:
        problems.append("smt policy crossings differ from the all-SMT baseline")
    return problems[:5]


def check_compare_csv(text: str, grid: dict) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    want = len(grid["sizes"]) * len(grid["hw_sub_counts"])
    if len(rows) != want:
        return [f"{len(rows)} grid rows, want {want}"]
    sides = ["speedup_hw"] + (["speedup_sw"] if grid.get("sw_sub_count", 0) else [])
    bad = [r for r in rows for side in sides if not float(r[side] or 0) > 0]
    return [f"cell without a positive speedup: {bad[0]}"] if bad else []


def check_calibration(doc: dict, n_targets: int) -> list[str]:
    if not doc["ok"] or len(doc["residuals"]) != n_targets:
        return [f"calibration ok={doc['ok']} with {len(doc['residuals'])} residuals"]
    return []
