"""Spans and counts around topomap's public functions, from outside the package.

Each function is replaced wherever a caller looks it up (every module
global that holds it), so ``topomap.simulate``, ``topomap.cli.simulate``
and ``topomap.simulator.simulate`` all reach the same wrapper. Graph and
placement lookups run hundreds of thousands of times per pass, so they
are counted and timed in aggregate instead of kept as spans; their time
is charged to the enclosing span.
"""

from __future__ import annotations

import importlib
import json
import time

from metrics import END, LOOKUP_S, NAME, PARENT, RUN, START, layer_time, self_times

MODULES = (
    "topomap",
    "topomap.cli",
    "topomap.graph",
    "topomap.mapping",
    "topomap.gateway",
    "topomap.simulator",
    "topomap.calibrate",
    "topomap.platform_model",
)

SPANS = (
    ("graph.parse_document", "topomap.graph", "parse_document"),
    ("graph.load_document", "topomap.graph", "load_document"),
    ("mapping.map_communication", "topomap.mapping", "map_communication"),
    ("mapping.mapping_report", "topomap.mapping", "mapping_report"),
    ("gateway.step", "topomap.gateway", "step"),
    ("simulator.simulate", "topomap.simulator", "simulate"),
    ("simulator.load_scenario", "topomap.simulator", "load_scenario"),
    ("simulator.compare_grid", "topomap.simulator", "compare_grid"),
    ("simulator.run_chain_scenario", "topomap.simulator", "run_chain_scenario"),
    ("simulator.trace_to_csv", "topomap.simulator", "trace_to_csv"),
    ("simulator.compute_stats", "topomap.simulator", "compute_stats"),
    ("simulator.stats_to_csv", "topomap.simulator", "stats_to_csv"),
    ("simulator.compare_to_csv", "topomap.simulator", "compare_to_csv"),
    ("calibrate.calibrate", "topomap.calibrate", "calibrate"),
    ("calibrate.simulated_speedup", "topomap.calibrate", "simulated_speedup"),
    ("calibrate.load_targets", "topomap.calibrate", "load_targets"),
    ("cli.main", "topomap.cli", "main"),
)
OUTPUT_SPANS = {
    "simulator.trace_to_csv",
    "simulator.compute_stats",
    "simulator.stats_to_csv",
    "simulator.compare_to_csv",
}
LOOKUPS = (
    ("ComputationGraph", ("publishers_of", "subscribers_of", "pub_edges_of", "sub_edges_of", "topic")),
    ("NodeMapping", ("placement_of", "is_hw")),
)


class Patches:
    """Replaces objects at every lookup site and puts them back on ``undo``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, replacement):
        sites = 0
        for name in MODULES:
            module = importlib.import_module(name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    sites += 1
        if not sites:
            raise RuntimeError(f"no lookup site holds {original!r}")

    def replace_attr(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SimCapture:
    """Keeps each SimResult of the current operation, with its host time.

    Installed on every pass, traced or not, so that every simulation's
    output can be checked after the operation ends.
    """

    def __init__(self):
        self.sims: list[tuple] = []  # (scenario, platform, result, host_s)

    def install(self, patches: Patches):
        simulate = importlib.import_module("topomap.simulator").simulate
        sims = self.sims
        clock = time.perf_counter

        def captured(scenario, platform, *args, **kwargs):
            t0 = clock()
            result = simulate(scenario, platform, *args, **kwargs)
            sims.append((scenario, platform, result, clock() - t0))
            return result

        patches.replace(simulate, captured)

    def take(self) -> list[tuple]:
        taken = list(self.sims)
        self.sims.clear()
        return taken


class Tracer:
    """Span recorder for one traced pass; spans stay in memory until written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.lookup_calls = 0
        self.lookup_s = 0.0
        self.output_bytes = 0
        self._open: list[int] = []
        self._in_lookup = False

    def _span(self, name: str, fn, count_bytes: bool):
        spans, open_, clock, run_id = self.spans, self._open, time.perf_counter, self.run_id

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, open_[-1] if open_ else -1, 0.0, run_id]
            spans.append(record)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                open_.pop()
            if count_bytes and isinstance(result, str):
                self.output_bytes += len(result)
            return result

        return traced

    def _lookup(self, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def counted(*args, **kwargs):
            self.lookup_calls += 1
            if self._in_lookup:  # nested lookup: its time is already being charged
                return fn(*args, **kwargs)
            self._in_lookup = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_lookup = False
                self.lookup_s += dt
                if open_:
                    spans[open_[-1]][LOOKUP_S] += dt

        return counted

    def install(self, patches: Patches):
        for name, module, attr in SPANS:
            original = getattr(importlib.import_module(module), attr)
            patches.replace(original, self._span(name, original, name in OUTPUT_SPANS))
        graph = importlib.import_module("topomap.graph")
        for cls_name, methods in LOOKUPS:
            cls = getattr(graph, cls_name)
            for method in methods:
                patches.replace_attr(cls, method, self._lookup(getattr(cls, method)))

    def write(self, fh):
        for i, s in enumerate(self.spans):
            fh.write(json.dumps([s[RUN], i, s[NAME], s[START], s[END], s[PARENT], s[LOOKUP_S]]) + "\n")

    def layer_metrics(self, counts: dict) -> dict[str, float]:
        """Per-layer host metrics of this pass; ``counts`` are its simulated counts."""
        spans = self.spans
        selfs = self_times(spans)

        def named(name):
            return [i for i, s in enumerate(spans) if s[NAME] == name]

        def under(i, ancestor):
            parent = spans[i][PARENT]
            while parent >= 0:
                if spans[parent][NAME] == ancestor:
                    return True
                parent = spans[parent][PARENT]
            return False

        steps = len(named("gateway.step"))
        simulate_self = sum(selfs[i] for i in named("simulator.simulate"))
        evals = sum(1 for i in named("calibrate.simulated_speedup") if under(i, "calibrate.calibrate"))
        fit_s = layer_time(spans, {"calibrate.calibrate"})
        events = counts["simulator.events"]
        useful = counts["gateway.actions.TRANSFER_TO_HMT"] + counts["gateway.actions.TRANSFER_TO_MAIN"]
        return {
            "graph.parse_s": layer_time(spans, {"graph.parse_document", "graph.load_document"}),
            "graph.lookup_calls": self.lookup_calls,
            "graph.lookup_s": self.lookup_s,
            "mapping.map_calls": len(named("mapping.map_communication")),
            "mapping.map_s": layer_time(spans, {"mapping.map_communication"}),
            "mapping.report_s": layer_time(spans, {"mapping.mapping_report"}),
            "gateway.steps": steps,
            "gateway.step_s": layer_time(spans, {"gateway.step"}),
            "gateway.useful_ratio": useful / steps if steps else 0.0,
            "simulator.simulate_s": layer_time(spans, {"simulator.simulate"}),
            "simulator.self_s": simulate_self,
            "simulator.ns_per_event": simulate_self * 1e9 / events if events else 0.0,
            "simulator.output_s": layer_time(spans, OUTPUT_SPANS),
            "simulator.output_bytes": self.output_bytes,
            "calibrate.objective_evals": evals,
            "calibrate.fit_s": fit_s,
            "calibrate.s_per_eval": fit_s / evals if evals else 0.0,
            "cli.calls": len(named("cli.main")),
            "cli.self_s": sum(selfs[i] for i in named("cli.main")),
            "trace.spans": len(spans),
        }
