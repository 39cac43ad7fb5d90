"""Seeded input documents for the benchmark workloads.

Everything here is plain JSON written with the standard library; topomap
itself only ever sees the files. The same seed writes the same bytes.
Generators keep the amount of work fixed across seeds (node counts,
fan-out multiset, HW share, message counts) and let the seed choose only
structure, sizes within a band and the jitter seed, so host time compares
across seeds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# star_fanout: one publisher, one topic, a row of subscribers.
# (publisher side, HW subscribers, SW subscribers)
STAR_SHAPES = (("hw", 32, 4), ("sw", 16, 8))
STAR_POLICIES = ("smt", "multi-hw-sub")
STAR_MESSAGES = 500
# At 110 kB and 32 HW pulls per message the SMT pool is busy about 60% of
# each period; a shorter period or a wider star saturates MEMIF and the
# flow backlog grows with run length (see README.md, excluded regime).
STAR_PERIOD_US = 5000.0
STAR_SIZE_RANGE = (90_000, 110_000)

# map_large: several random bipartite graphs, one publisher per topic.
MAP_GRAPH_NODES = (1000, 1500, 2000)
MAP_POLICIES = ("smt", "multi-hw-sub", "cost")
MAP_FANOUTS = tuple(range(1, 9))
# Straddles the SMT/GW break-even of the default platform (about 7.6 kB at
# 8 HW subscribers, 45.6 kB at 3, never below 3).
MAP_SIZES = (1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def star_graph_doc(publisher_kind: str, hw_subs: int, sw_subs: int, size_bytes: int) -> dict:
    hw = [f"hw_sub_{i + 1}" for i in range(hw_subs)]
    sw = [f"sw_sub_{i + 1}" for i in range(sw_subs)]
    placements = {"pub0": publisher_kind.upper()}
    placements.update({n: "HW" for n in hw})
    placements.update({n: "SW" for n in sw})
    return {
        "nodes": [{"id": n} for n in placements],
        "topics": [{"id": "t0", "message_size_bytes": size_bytes, "publish_rate_hz": 200.0}],
        "publishes": [{"node": "pub0", "topic": "t0"}],
        "subscribes": [{"topic": "t0", "node": n} for n in hw + sw],
        "node_mapping": placements,
    }


def star_documents(out_dir: Path, seed: int) -> list[dict]:
    """One scenario document per (star, policy); returns their descriptions."""
    rng = random.Random(seed)
    specs = []
    for kind, hw_subs, sw_subs in STAR_SHAPES:
        size = rng.randint(*STAR_SIZE_RANGE)
        graph = star_graph_doc(kind, hw_subs, sw_subs, size)
        graph_name = f"star_{kind}.json"
        _write(out_dir / graph_name, graph)
        sim_seed = rng.randrange(2**31)
        for policy in STAR_POLICIES:
            name = f"star_{kind}_{policy}"
            scenario = {
                "graph": graph_name,
                "policy": policy,
                "seed": sim_seed,
                "workload": [
                    {"publisher": "pub0", "topic": "t0", "count": STAR_MESSAGES, "period_us": STAR_PERIOD_US}
                ],
            }
            specs.append(
                {
                    "name": name,
                    "scenario": str(_write(out_dir / f"{name}.json", scenario)),
                    "graph": graph,
                    "messages": STAR_MESSAGES,
                }
            )
    return specs


def bipartite_graph_doc(n_nodes: int, rng: random.Random) -> dict:
    """Random pub-sub graph: n_nodes/6 topics, one publisher each, fan-out 1-8.

    Exactly half the nodes are HW; fan-outs and sizes cycle through fixed
    multisets in a seeded order, so only the structure depends on the seed.
    """
    nodes = [f"n{i:05d}" for i in range(n_nodes)]
    hw = set(rng.sample(nodes, n_nodes // 2))
    n_topics = n_nodes // 6
    fanouts = [MAP_FANOUTS[i % len(MAP_FANOUTS)] for i in range(n_topics)]
    sizes = [MAP_SIZES[i % len(MAP_SIZES)] for i in range(n_topics)]
    rng.shuffle(fanouts)
    rng.shuffle(sizes)
    topics, pubs, subs = [], [], []
    for k in range(n_topics):
        tid = f"t{k:05d}"
        publisher, *readers = rng.sample(nodes, fanouts[k] + 1)
        topics.append({"id": tid, "message_size_bytes": sizes[k], "publish_rate_hz": 30.0})
        pubs.append({"node": publisher, "topic": tid})
        subs.extend({"topic": tid, "node": r} for r in readers)
    return {
        "nodes": [{"id": n} for n in nodes],
        "topics": topics,
        "publishes": pubs,
        "subscribes": subs,
        "node_mapping": {n: "HW" if n in hw else "SW" for n in nodes},
    }


def map_documents(out_dir: Path, seed: int) -> list[dict]:
    rng = random.Random(seed)
    specs = []
    for n_nodes in MAP_GRAPH_NODES:
        graph = bipartite_graph_doc(n_nodes, rng)
        path = _write(out_dir / f"graph_{n_nodes}.json", graph)
        specs.append({"name": f"graph_{n_nodes}", "path": str(path), "graph": graph})
    return specs


def loo_target_documents(targets_path: Path, out_dir: Path) -> list[dict]:
    """One targets document per packaged target, holding that target out."""
    doc = json.loads(Path(targets_path).read_text(encoding="utf-8"))
    specs = []
    for i, held in enumerate(doc["targets"]):
        rest = dict(doc, targets=[t for j, t in enumerate(doc["targets"]) if j != i])
        path = _write(out_dir / f"targets_without_{i}.json", rest)
        specs.append({"name": f"loo_{i}", "targets": str(path), "held": held})
    return specs
