"""topomap: transport mapping and timing simulation for mixed
hardware/software publish-subscribe computation graphs."""

from .graph import (
    ComputationGraph,
    NodeMapping,
    Placement,
    TopicSpec,
    parse_document,
    parse_graph,
    serialize_graph,
)
from .mapping import (
    CommMapping,
    MappingPolicy,
    TopicClass,
    TopicImpl,
    classify_topic,
    cost_params_from_platform,
    count_boundary_crossings,
    map_communication,
    mapping_report,
)
from .platform_model import PlatformModel
from .engine import SimResult
from .scenario import Scenario, WorkloadItem, load_scenario, star_scenario
from .simulator import compare_grid, compute_stats, run_chain_scenario, simulate
from .calibrate import SpeedupTarget

__version__ = "0.1.0"

__all__ = [
    "ComputationGraph",
    "NodeMapping",
    "Placement",
    "TopicSpec",
    "parse_document",
    "parse_graph",
    "serialize_graph",
    "CommMapping",
    "MappingPolicy",
    "TopicClass",
    "TopicImpl",
    "classify_topic",
    "count_boundary_crossings",
    "map_communication",
    "mapping_report",
    "PlatformModel",
    "cost_params_from_platform",
    "Scenario",
    "SimResult",
    "WorkloadItem",
    "compare_grid",
    "compute_stats",
    "load_scenario",
    "run_chain_scenario",
    "simulate",
    "star_scenario",
    "SpeedupTarget",
]
