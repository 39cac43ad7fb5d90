"""Fit platform timing parameters to measured speedup targets.

A target says: on a star topology with this publisher kind, this message
size and this many hardware subscribers, mapping the topic properly
instead of leaving it on the software transport sped the measured side up
by this factor.  Calibration searches platform parameters so that the
simulator reproduces all targets at once, minimizing the sum of squared
log-ratios between simulated and measured speedups.

The search is a plain coordinate descent in log space: multiplicative
probes per parameter, shrinking the step between sweeps.  It needs no
gradients.  Each evaluation of the objective prices every target with
two calls of ``timing.predict_latency_ns`` (all-SMT and the mapped star,
one message, jitter off), which equals the simulator to the nanosecond,
so a probe simulates nothing.  What does not depend on the platform is
built once per target and reused by every evaluation: the star scenario
with both transport mappings resolved, its endpoints and the
subscribers the target measures.  Within one fit the per-target speedups
are kept per platform, so a probe that lands on a platform already
priced (a revisited vector, or one the HMT-over-MEMIF clamp maps onto
another) costs nothing.  The residuals of the fitted platform come from
``simulated_speedup``, two simulations per target, so the simulator
stays the judge of the fit.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict, replace
from statistics import fmean

from .mapping import MappingPolicy, TopicEndpoints, TopicImpl, topic_endpoints
from .platform_model import PlatformModel
from .simulator import (
    Scenario,
    ScenarioError,
    _fanout_latencies,
    _integer,
    _known_keys,
    _number,
    _size,
    _typed,
    simulate,
    star_scenario,
)
from .timing import NS_PER_US, predict_latency_ns


class TargetError(ValueError):
    pass


@dataclass(frozen=True)
class SpeedupTarget:
    publisher_kind: str  # "hw" | "sw"
    size_bytes: int
    hw_subs: int
    sw_subs: int
    measure: str  # "hw": hw-side fan-out ratio, "sw": sw-side
    speedup: float

    def __post_init__(self):
        if self.publisher_kind not in ("hw", "sw"):
            raise TargetError(f"publisher_kind must be 'hw' or 'sw', got {self.publisher_kind!r}")
        if self.measure not in ("hw", "sw"):
            raise TargetError(f"measure must be 'hw' or 'sw', got {self.measure!r}")
        if not self.speedup > 0:
            raise TargetError(f"speedup must be positive, got {self.speedup!r}")
        if self.measure == "hw" and self.hw_subs < 1:
            raise TargetError("hw-side target needs at least one hardware subscriber")
        if self.measure == "sw" and self.sw_subs < 1:
            raise TargetError("sw-side target needs at least one software subscriber")


def _target(entry, where: str) -> SpeedupTarget:
    _known_keys(_typed(entry, dict, where), SpeedupTarget.__dataclass_fields__, where)
    try:
        return SpeedupTarget(
            publisher_kind=entry["publisher_kind"],
            size_bytes=_size(entry["size_bytes"], f"{where}.size_bytes"),
            hw_subs=_integer(entry["hw_subs"], f"{where}.hw_subs", 0),
            sw_subs=_integer(entry.get("sw_subs", 0), f"{where}.sw_subs", 0),
            measure=entry["measure"],
            speedup=_number(entry["speedup"], f"{where}.speedup"),
        )
    except KeyError as exc:
        raise TargetError(f"{where}: missing key {exc.args[0]!r}") from None


def parse_targets(text: str) -> tuple[list[SpeedupTarget], float]:
    """Targets document: {"threshold": rel_err, "targets": [{...}, ...]}, range-checked."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "targets" not in doc:
        raise TargetError("targets document must be an object with a 'targets' list")
    try:
        _known_keys(doc, ("threshold", "targets"), "targets document")
        threshold = _number(doc.get("threshold", 0.25), "threshold")
        entries = _typed(doc["targets"], list, "targets")
        targets = [_target(entry, f"targets[{i}]") for i, entry in enumerate(entries)]
    except ScenarioError as exc:
        raise TargetError(str(exc)) from None
    if not targets:
        raise TargetError("targets list is empty")
    return targets, threshold


def load_targets(path) -> tuple[list[SpeedupTarget], float]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_targets(fh.read())


# -- simulation of one target ------------------------------------------------


@dataclass(frozen=True)
class _Cell:
    """What one target simulates and predicts, none of which depends on the platform."""

    baseline: Scenario  # the star with every topic on SMT
    mapped: Scenario  # the star as ALWAYS_GW_IF_MULTI_HW_SUB maps it
    topic: str
    measured: frozenset[str]  # the subscribers on the target's measure side
    endpoints: TopicEndpoints  # the star's one topic
    publisher: str
    impls: tuple[TopicImpl, TopicImpl]  # the topic's transport in baseline and mapped


def _resolved(star: Scenario, policy: MappingPolicy) -> Scenario:
    scenario = replace(star, policy=policy)
    return replace(scenario, comm_mapping=scenario.resolve_mapping())


# a fit over more targets than this rebuilds each cell on every evaluation
@functools.lru_cache(maxsize=256)
def _cell(target: SpeedupTarget) -> _Cell:
    star = star_scenario(
        target.publisher_kind,
        target.hw_subs,
        target.sw_subs,
        target.size_bytes,
        reps=1,
        period_us=1.0,
        seed=0,  # jitter is off, so the generator is never drawn
        jitter_pct=0.0,
    )
    (topic,) = star.graph.topic_ids()  # a star has exactly one topic
    endpoints = topic_endpoints(star.graph, star.node_mapping, topic)
    baseline = _resolved(star, MappingPolicy.ALWAYS_SMT)
    mapped = _resolved(star, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
    (publisher,) = endpoints.hw_pubs + endpoints.sw_pubs
    return _Cell(
        baseline=baseline,
        mapped=mapped,
        topic=topic,
        measured=frozenset(endpoints.hw_subs if target.measure == "hw" else endpoints.sw_subs),
        endpoints=endpoints,
        publisher=publisher,
        impls=(baseline.comm_mapping.impl_of(topic), mapped.comm_mapping.impl_of(topic)),
    )


def simulated_speedup(target: SpeedupTarget, platform: PlatformModel) -> float:
    """Deterministic (jitter-free) speedup for one target cell."""
    cell = _cell(target)
    base = fmean(_fanout_latencies(simulate(cell.baseline, platform), cell.topic, cell.measured))
    mapped = fmean(_fanout_latencies(simulate(cell.mapped, platform), cell.topic, cell.measured))
    return base / mapped


def predicted_speedup(target: SpeedupTarget, platform: PlatformModel) -> float:
    """``simulated_speedup``'s value, bit for bit, from the latency model instead of the simulator.

    With one message the mean fan-out time is the worst measured latency,
    and dividing by ``NS_PER_US`` keeps the order of latencies, so the
    worst of the engine's latencies in us is the worst prediction in us.
    """
    cell = _cell(target)
    worst = []
    for impl in cell.impls:
        latency = predict_latency_ns(cell.endpoints, cell.publisher, impl, target.size_bytes, platform)
        worst.append(max(latency[sub] for sub in cell.measured) / NS_PER_US)
    base, mapped = worst
    return base / mapped


# -- the optimizer ------------------------------------------------------------

def coordinate_descent(
    objective,
    x0: dict[str, float],
    sweeps: int = 4,
    floor: float = 1.02,
) -> tuple[dict[str, float], float]:
    """Minimize ``objective(x)`` by multiplicative coordinate probes.

    The first sweep probes by a factor of 1.4; steps shrink geometrically
    between sweeps and stop at ``floor``.  Deterministic given a
    deterministic objective.
    """
    x = dict(x0)
    best = objective(x)
    step = 1.4
    for _ in range(sweeps):
        for key in x0:
            improved = True
            while improved:
                improved = False
                for mult in (step, 1.0 / step):
                    trial = dict(x)
                    trial[key] = x[key] * mult
                    value = objective(trial)
                    if value < best - 1e-15:
                        x, best = trial, value
                        improved = True
                        break
        step = max(floor, math.sqrt(step))
        if step <= floor:
            break
    return x, best


def _vector_from_platform(platform: PlatformModel) -> dict[str, float]:
    return {
        "osif_roundtrip_us": platform.osif_roundtrip_us,
        "delegate_publish_us": platform.delegate_publish_us,
        "sw_dds_intercept_us": platform.sw_dds_intercept_us,
        "sw_dds_us_per_byte": platform.sw_dds_us_per_byte,
        "sw_copy_bandwidth_bytes_per_s": platform.sw_copy_bandwidth_bytes_per_s,
        "memif_bandwidth_bytes_per_s": platform.memif_bandwidth_bytes_per_s,
        "hmt_over_memif": platform.hmt_bandwidth_bytes_per_s / platform.memif_bandwidth_bytes_per_s,
    }


def _platform_from_vector(vec: dict[str, float]) -> PlatformModel:
    ratio = max(1.0, vec["hmt_over_memif"])  # HMT never slower than MEMIF
    return PlatformModel(
        memif_bandwidth_bytes_per_s=vec["memif_bandwidth_bytes_per_s"],
        hmt_bandwidth_bytes_per_s=vec["memif_bandwidth_bytes_per_s"] * ratio,
        osif_roundtrip_us=vec["osif_roundtrip_us"],
        delegate_publish_us=vec["delegate_publish_us"],
        sw_dds_intercept_us=vec["sw_dds_intercept_us"],
        sw_dds_us_per_byte=vec["sw_dds_us_per_byte"],
        sw_copy_bandwidth_bytes_per_s=vec["sw_copy_bandwidth_bytes_per_s"],
    )


@dataclass(frozen=True)
class CalibrationResult:
    platform: PlatformModel
    residuals: tuple[dict, ...]
    objective_value: float
    threshold: float
    ok: bool


def calibrate(
    targets: list[SpeedupTarget],
    threshold: float,
    sweeps: int = 3,
) -> CalibrationResult:
    """Fit the tunable platform parameters to the targets, starting from the default platform."""

    speedups: dict[PlatformModel, tuple[float, ...]] = {}

    def speedups_on(platform: PlatformModel) -> tuple[float, ...]:
        if platform not in speedups:
            speedups[platform] = tuple(predicted_speedup(t, platform) for t in targets)
        return speedups[platform]

    def objective(vec: dict[str, float]) -> float:
        try:
            platform = _platform_from_vector(vec)
        except ValueError:
            return math.inf
        total = 0.0
        for t, sim in zip(targets, speedups_on(platform)):
            if sim <= 0:
                return math.inf
            total += math.log(sim / t.speedup) ** 2
        return total

    best_vec, best_value = coordinate_descent(objective, _vector_from_platform(PlatformModel()), sweeps=sweeps)
    fitted = _platform_from_vector(best_vec)

    residuals = []
    all_ok = True
    for t in targets:
        sim = simulated_speedup(t, fitted)
        rel = sim / t.speedup - 1.0
        ok = abs(rel) <= threshold
        all_ok = all_ok and ok
        residuals.append(
            {
                "publisher_kind": t.publisher_kind,
                "size_bytes": t.size_bytes,
                "hw_subs": t.hw_subs,
                "sw_subs": t.sw_subs,
                "measure": t.measure,
                "target_speedup": t.speedup,
                "simulated_speedup": sim,
                "rel_error": rel,
                "ok": ok,
            }
        )
    return CalibrationResult(
        platform=fitted,
        residuals=tuple(residuals),
        objective_value=best_value,
        threshold=threshold,
        ok=all_ok,
    )


def result_to_json(result: CalibrationResult) -> str:
    doc = {
        "platform": asdict(result.platform),
        "residuals": list(result.residuals),
        "objective_value": result.objective_value,
        "threshold": result.threshold,
        "ok": result.ok,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
