"""Metric arithmetic shared by the workloads; pure functions over plain data."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

SIM_EVENT_KINDS = ("PUBLISH", "DELIVER", "MEMIF_TRANSFER", "HMT_TRANSFER", "SW_COPY")
GW_ACTION_KINDS = (
    "REQUEST_SMT_MESSAGE",
    "CANCEL_SMT_REQUEST",
    "TRANSFER_TO_HMT",
    "TRANSFER_TO_MAIN",
    "PUBLISH_SMT",
    "DISCARD",
)

# A span is [name, start_s, end_s, parent_index, lookup_s, run_id]; parent
# -1 is a root. lookup_s is host time in graph lookups called directly
# under the span, which are counted rather than kept as spans.
NAME, START, END, PARENT, LOOKUP_S, RUN = range(6)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus its child spans and its direct lookups."""
    out = [s[END] - s[START] - s[LOOKUP_S] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_time(spans: list, names: set[str]) -> float:
    """Host time inside spans named in ``names``, counting nested ones once."""
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += s[END] - s[START]
    return total


class SimTally:
    """Simulated statistics summed over many SimResults; host time plays no part."""

    def __init__(self):
        self.kinds: dict[str, int] = {}
        self.events = self.deliveries = self.span_ns = 0
        self.segments = self.max_flows = 0
        self.busy_ns = self.flow_ns = self.bytes = 0.0

    def add(self, result):
        self.events += len(result.trace)
        self.deliveries += len(result.deliveries)
        for ev in result.trace:
            self.kinds[ev.kind] = self.kinds.get(ev.kind, 0) + 1
        if result.trace:
            self.span_ns += result.trace[-1].t_ns
        self.add_segments(result.memif_segments)

    def add_segments(self, segments):
        """Pool intervals (t0_ns, t1_ns, flows, bytes) of one simulation."""
        for t0, t1, flows, nbytes in segments:
            self.busy_ns += t1 - t0
            self.flow_ns += flows * (t1 - t0)
            self.bytes += nbytes
            self.max_flows = max(self.max_flows, flows)
        self.segments += len(segments)

    def counts(self) -> dict[str, float]:
        """``mean_flows`` is weighted by interval length over busy time only;
        ``busy_fraction`` is busy simulated time over the simulated span."""
        kinds = self.kinds
        out = {"simulator.events": self.events, "simulator.deliveries": self.deliveries}
        out.update({f"simulator.events.{k}": kinds.get(k, 0) for k in SIM_EVENT_KINDS})
        out.update({f"gateway.actions.{k}": kinds.get(f"GW_ACTION:{k}", 0) for k in GW_ACTION_KINDS})
        out.update(
            {
                "simulator.memif.segments": self.segments,
                "simulator.memif.max_flows": self.max_flows,
                "simulator.memif.mean_flows": self.flow_ns / self.busy_ns if self.busy_ns else 0.0,
                "simulator.memif.busy_fraction": self.busy_ns / self.span_ns if self.span_ns else 0.0,
                "simulator.memif.bytes": self.bytes,
                "simulator.sim_span_s": self.span_ns / 1e9,
            }
        )
        return out


def worst_mean_latency_us(result) -> float:
    """Mean delivery latency of the worst-served subscriber."""
    per_sub: dict[str, list[float]] = {}
    for d in result.deliveries:
        per_sub.setdefault(d.subscriber, []).append(d.latency_us)
    return max(sum(v) / len(v) for v in per_sub.values())


def output_digest(results, output) -> str:
    """sha256 over an operation's output and every trace row and MEMIF
    interval of its simulations, in order."""
    h = hashlib.sha256(repr(output).encode())
    for r in results:
        for ev in r.trace:
            h.update(f"{ev.t_ns},{ev.kind},{ev.message_id},{ev.endpoint}\n".encode())
        h.update(repr(r.memif_segments).encode())
    return h.hexdigest()


def cost_regret_max(cells) -> float:
    """Worst ratio of the picked transport's latency to the better one's.

    ``cells`` yields (pick, {transport: latency}); 1.0 means every pick
    was the faster transport.
    """
    return max(latency[pick] / min(latency.values()) for pick, latency in cells)


class OpError(Exception):
    """An operation exited non-zero or produced output that fails its check."""


@dataclass
class Ledger:
    """Attempted and failed operations; every operation counts once."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def attempt(fn):
    """Run ``fn``; returns (value, problems). Raising or exiting fails it."""
    try:
        return fn(), []
    except SystemExit as exc:
        return None, [f"exited with code {exc.code}"]
    except Exception as exc:  # an operation's failure is recorded, never fatal
        return None, [f"raised {type(exc).__name__}: {exc}"]
