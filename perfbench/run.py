"""topomap benchmark: one workload, one seed, one closed loop in one thread.

    python3 perfbench/run.py --workload star_fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the checkout that holds this file.
The seeded inputs are written under ``.perfbench_out/`` before set-up is
timed. Passes of the workload repeat until their timed work reaches
``--seconds`` (at least three); each operation's output is checked between
operations, untimed. Host times are scaled to a reference machine speed
(see reference.py and README.md). ``--trace 0`` prints the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics, writing the traced passes' spans to a JSONL
file. The last line of standard output is the JSON result. The exit code
is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_sim
from metrics import Ledger, SimTally, attempt, output_digest
from reference import REF_NOMINAL_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "topomap" / "data"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("star_fanout", "map_large", "sweep")
MIN_PASSES = 3
SETUP_PROBES = 16


@dataclass
class Pass:
    op_s: dict  # per operation: host seconds of its timed work, not its checks
    sim_s: dict  # per operation: host seconds inside simulate
    refs: list  # host seconds of the reference loop before each operation and after the last
    topics: int
    counts: dict
    outputs: dict
    digests: dict

    @property
    def wall_s(self) -> float:
        return sum(self.op_s.values())


def scaled(passes: list[Pass], field: str) -> float:
    """A pass's host seconds at the reference machine speed (see reference.py).

    Each operation contributes the median, over passes, of its time divided
    by the mean of the reference loop's times just before and after it.
    """
    names = list(getattr(passes[0], field))
    ratios = (
        statistics.median(getattr(p, field)[n] / ((p.refs[i] + p.refs[i + 1]) / 2) for p in passes)
        for i, n in enumerate(names)
    )
    return REF_NOMINAL_S * sum(ratios)


def run_pass(ops, capture, ledger, reference: dict | None) -> Pass:
    """One pass over ``ops``; ``reference`` holds the first pass's digests."""
    tally = SimTally()
    outputs, digests, op_s, sim_s, refs = {}, {}, {}, {}, []
    topics = 0
    gc.collect()
    for op in ops:
        refs.append(reference_s())
        t0 = time.perf_counter()
        out, problems = attempt(op.run)
        op_s[op.name] = time.perf_counter() - t0
        sims = capture.take()
        if not problems:
            problems = op.check(out, sims)
        sim_s[op.name] = sum(host_s for _, _, _, host_s in sims)
        for scenario, platform, result, _ in sims:
            problems += check_sim(scenario, platform, result)
            tally.add(result)
        digests[op.name] = output_digest((r for _, _, r, _ in sims), out)
        if reference is not None and digests[op.name] != reference[op.name]:
            problems.append("output or simulation differs from the first pass")
        ledger.record(op.name, problems)
        outputs[op.name] = out
        topics += op.topics
    refs.append(reference_s())
    return Pass(op_s, sim_s, refs, topics, tally.counts(), outputs, digests)


def probe_setup() -> float:
    """A fresh interpreter's set-up time over its reference loop time."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    setup_s, ref_s = map(float, done.stdout.split())
    return setup_s / ref_s


def write_inputs(workload: str, seed: int, work: Path):
    """The seeded documents the workload's operations read; topomap is not imported yet."""
    import inputs

    specs = None
    if workload == "star_fanout":
        specs = inputs.star_documents(work, seed)
    elif workload == "map_large":
        specs = inputs.map_documents(work, seed)
    loo = inputs.loo_target_documents(DATA / "measured_speedups.json", work)
    return specs, loo


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "topomap" / "__init__.py").is_file():
        print(f"error: no topomap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        specs, loo = write_inputs(args.workload, args.seed, work)
        result = run_workload(args, specs, loo, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = result.pop("ledger")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {result['passes']} passes")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, value in result["info"].items():
        print(f"info {name} {value}")
    print(f"info error_rate {ledger.error_rate!r} (failed {ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}")
    (OUT / f"{tag}.json").write_text(
        json.dumps({**result, "metrics": metrics, "problems": ledger.problems}, indent=1) + "\n",
        encoding="utf-8",
    )
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_workload(args, specs, loo, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import topomap
    import workloads
    from tracing import Patches, SimCapture, Tracer

    platform = topomap.PlatformModel.load(DATA / "default_platform.json")
    if args.workload == "star_fanout":
        ops = workloads.star_fanout_ops(specs, work)
    elif args.workload == "map_large":
        ops = workloads.map_large_ops(specs, work)
    else:
        chain = topomap.load_scenario(DATA / "chain_scenario.json")
        ops = workloads.sweep_ops(DATA, work, platform, loo, chain, args.seed)

    capture = SimCapture()
    capture.install(Patches())  # stays for the whole run
    ledger = Ledger()
    plain, traced, tracers = [], [], []
    # Set-up probes run one per pass, so that they sample the whole run
    # rather than one moment of it; the first only warms the file cache.
    setup: list[float] = []
    if not args.trace:
        probe_setup()
    elapsed = 0.0
    while len(plain) < MIN_PASSES or elapsed < args.seconds:
        if not args.trace:
            setup.append(probe_setup())
        reference = plain[0].digests if plain else None
        plain.append(run_pass(ops, capture, ledger, reference))
        elapsed += plain[-1].wall_s
        if args.trace:
            tracer, patches = Tracer(f"{args.workload}-seed{args.seed}-pass{len(traced)}"), Patches()
            tracer.install(patches)
            try:
                traced.append(run_pass(ops, capture, ledger, plain[0].digests))
            finally:
                patches.undo()
            tracers.append(tracer)
            elapsed += traced[-1].wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(probe_setup())

    wall = scaled(plain, "op_s")
    first = plain[0]
    info = {
        "measured_s": sum(p.wall_s for p in plain + traced),
        "median_pass_s": statistics.median(p.wall_s for p in plain),
        "output_sha256": hashlib.sha256("".join(first.digests.values()).encode()).hexdigest(),
        "sim_events_per_pass": first.counts["simulator.events"],
        "memif_max_flows": first.counts["simulator.memif.max_flows"],
    }
    if args.trace:
        layers = [{**t.layer_metrics(p.counts), **p.counts} for t, p in zip(tracers, traced)]
        metrics = {k: statistics.median_low(layer[k] for layer in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = scaled(traced, "op_s") - wall
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for tracer in tracers:
                tracer.write(fh)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        return {"passes": len(plain) + len(traced), "metrics": metrics, "info": info, "ledger": ledger}

    if args.workload == "map_large":
        throughput = first.topics / wall
        info["topics_per_s"] = throughput
    else:
        throughput = first.counts["simulator.events"] / scaled(plain, "sim_s")
        info["events_per_s"] = throughput
    if args.workload == "sweep":
        accuracy = workloads.accuracy(plain[-1].outputs)
    else:  # the model's accuracy does not depend on the workload; measured once, untimed
        extra = workloads.accuracy_ops(DATA, work, platform, loo)
        accuracy = workloads.accuracy(run_pass(extra, capture, ledger, None).outputs)
    metrics = {
        "wall_s": wall,
        "setup_s": REF_NOMINAL_S * statistics.median(setup),
        "throughput_per_s": throughput,
        "peak_rss_mb": peak_rss_mb,
        **accuracy,
    }
    return {
        "passes": len(plain),
        "pass_wall_s": [p.wall_s for p in plain],
        "raw": [{"op_s": p.op_s, "sim_s": p.sim_s, "refs": p.refs} for p in plain],
        "metrics": metrics,
        "info": info,
        "ledger": ledger,
    }


def run_all(args) -> int:
    """Every workload in its own interpreter; merges their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 and result is None:
            return done.returncode
        merged["correct"] &= result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
