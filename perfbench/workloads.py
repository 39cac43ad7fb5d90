"""The workloads as lists of operations.

An operation's ``run`` is timed and goes through topomap's public entry
points only: ``topomap.cli.main`` and functions looked up on the topomap
modules at call time, so that instrumentation installed later is reached.
Its ``check`` runs untimed on the result and on every simulation the
operation made.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import topomap
import topomap.calibrate
import topomap.cli

from checks import (
    check_calibration,
    check_compare_csv,
    check_map_report,
    check_star_outputs,
    topic_classes,
)
from inputs import MAP_POLICIES
from metrics import OpError, cost_regret_max, worst_mean_latency_us

CHAIN = ["camera", "image_compensation", "gaussian_blur", "lane_planner", "polyfit", "lane_control"]
PACKAGED_GRIDS = ("grid_hw_publisher.json", "grid_hw_publisher_sw_sub.json", "grid_sw_publisher.json")
# hw/sw publisher x 0-2 SW subscribers x 1 kB-1 MB x 1-8 HW subscribers; the
# 16 hw-publisher cells without SW subscribers are all-HW and drop out.
REGRET_PUBLISHERS = ("hw", "sw")
REGRET_SW_SUBS = (0, 1, 2)
REGRET_SIZES = (1_000, 10_000, 100_000, 1_000_000)
REGRET_HW_SUBS = (1, 2, 4, 8)
REGRET_REPS = 4
REGRET_PERIOD_US = 50_000.0


def _no_problems(out, sims) -> list[str]:
    return []


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, list], list[str]] = _no_problems
    topics: int = 0  # topics this operation maps and reports


def cli(*argv: str) -> str:
    """``topomap <argv>`` in-process; raises OpError on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = topomap.cli.main(list(argv))
    if code != 0:
        raise OpError(f"topomap {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- star_fanout --------------------------------------------------------------


def star_fanout_ops(specs: list[dict], work: Path) -> list[Op]:
    ops = []
    for spec in specs:
        trace, stats = work / f"{spec['name']}.trace.csv", work / f"{spec['name']}.stats.csv"

        def run(spec=spec, trace=trace, stats=stats):
            return cli("simulate", "--scenario", spec["scenario"], "--trace", str(trace), "--stats", str(stats))

        def check(out, sims, spec=spec, trace=trace, stats=stats):
            if len(sims) != 1:
                return [f"{len(sims)} simulations for one simulate call"]
            return check_star_outputs(spec, sims[0][2], trace, stats)

        ops.append(Op(spec["name"], run, check))
    return ops


# -- map_large ----------------------------------------------------------------


def map_large_ops(specs: list[dict], work: Path) -> list[Op]:
    ops = []
    for spec in specs:
        classes = topic_classes(spec["graph"])
        for policy in MAP_POLICIES:
            out = work / f"{spec['name']}.{policy}.json"

            def run(spec=spec, policy=policy, out=out):
                cli("map", "--graph", spec["path"], "--policy", policy, "--out", str(out))
                return _read_json(out)

            def check(report, sims, spec=spec, classes=classes, policy=policy):
                return check_map_report(spec["graph"], classes, policy, report)

            ops.append(Op(f"{spec['name']}/{policy}", run, check, topics=len(classes)))
    return ops


# -- sweep --------------------------------------------------------------------


def accuracy_ops(data: Path, work: Path, platform, loo_specs: list[dict]) -> list[Op]:
    """Calibration in and out of sample, and the cost policy's regret grid."""
    targets = data / "measured_speedups.json"
    n_targets = len(_read_json(targets)["targets"])
    fit = work / "calibration.json"

    def calibrate():
        cli("calibrate", "--targets", str(targets), "--out", str(fit))
        return _read_json(fit)

    ops = [Op("calibrate", calibrate, lambda doc, sims: check_calibration(doc, n_targets))]
    for spec in loo_specs:
        out = work / f"{spec['name']}.json"

        def held_out_error(spec=spec, out=out):
            cli("calibrate", "--targets", spec["targets"], "--out", str(out))
            fitted = topomap.PlatformModel(**_read_json(out)["platform"])
            held = topomap.SpeedupTarget(**{"sw_subs": 0, **spec["held"]})
            return abs(topomap.calibrate.simulated_speedup(held, fitted) / held.speedup - 1)

        ops.append(Op(spec["name"], held_out_error))

    cost_params = topomap.cost_params_from_platform(platform)
    for pub in REGRET_PUBLISHERS:
        for n_sw in REGRET_SW_SUBS:
            if pub == "hw" and n_sw == 0:
                continue
            for size in REGRET_SIZES:
                for n_hw in REGRET_HW_SUBS:

                    def cell(pub=pub, n_sw=n_sw, size=size, n_hw=n_hw):
                        scn = topomap.star_scenario(
                            pub, n_hw, n_sw, size, reps=REGRET_REPS,
                            period_us=REGRET_PERIOD_US, seed=0, jitter_pct=0.0,
                        )
                        # the pick `topomap map --policy cost` makes on this platform
                        picked, _ = topomap.map_communication(
                            scn.graph, scn.node_mapping, topomap.MappingPolicy.COST, cost_params
                        )
                        latency = {}
                        for impl in ("SMT", "GW"):
                            fixed = topomap.CommMapping.from_dict({"t0": impl})
                            run = topomap.simulate(dataclasses.replace(scn, comm_mapping=fixed), platform)
                            latency[impl] = worst_mean_latency_us(run)
                        return picked.to_dict()["t0"], latency

                    ops.append(Op(f"regret/{pub}-sw{n_sw}-{size}B-hw{n_hw}", cell))
    return ops


def accuracy(outputs: dict[str, object]) -> dict[str, float]:
    fit = outputs["calibrate"]
    return {
        "speedup_max_rel_err": max(abs(r["rel_error"]) for r in fit["residuals"]),
        "speedup_loo_max_rel_err": max(v for k, v in outputs.items() if k.startswith("loo_")),
        "cost_regret_max": cost_regret_max(v for k, v in outputs.items() if k.startswith("regret/")),
    }


def sweep_ops(data: Path, work: Path, platform, loo_specs: list[dict], chain_scenario, seed: int) -> list[Op]:
    ops = []
    for name in PACKAGED_GRIDS:
        grid = _read_json(data / name)["grid"]
        out = work / f"compare_{name}.csv"

        def compare(name=name, out=out):
            os.environ["TOPOMAP_SEED"] = str(seed)
            try:
                cli("compare", "--scenario", str(data / name), "--policies", "smt,multi-hw-sub", "--out", str(out))
            finally:
                del os.environ["TOPOMAP_SEED"]
            return out.read_text(encoding="utf-8")

        ops.append(Op(f"compare/{name}", compare, lambda text, sims, grid=grid: check_compare_csv(text, grid)))

    def chain():
        baseline = dataclasses.replace(chain_scenario, policy=topomap.MappingPolicy.ALWAYS_SMT, comm_mapping=None)
        mapped = topomap.run_chain_scenario(chain_scenario, platform, CHAIN, seed=seed)
        base = topomap.run_chain_scenario(baseline, platform, CHAIN, seed=seed)
        return base, mapped

    def chain_check(out, sims):
        (base_mean, base_std), (mapped_mean, mapped_std) = out
        speedup = base_mean / mapped_mean
        if 1.2 <= speedup <= 1.6 and mapped_std < base_std:
            return []
        return [f"chain speedup {speedup:.3f}, stddev {base_std:.1f} -> {mapped_std:.1f} us"]

    ops.append(Op("chain", chain, chain_check))
    return ops + accuracy_ops(data, work, platform, loo_specs)
