"""Every simulation and spanned call a public entry point makes stays visible to the benchmark harness.

perfbench swaps a function only in the globals of the modules its
``tracing.MODULES`` names, so a call looked up through any other module
escapes its checks and counts. The harness's own ``SimCapture``, ``Tracer``
and ``Patches`` are installed here, so that list stays the one source.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import topomap
import topomap.calibrate
import topomap.cli
from topomap.platform_model import PlatformModel
from topomap.scenario import load_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PLATFORM = PlatformModel()


def _load(name: str, monkeypatch):
    """perfbench's module ``name``, run from its file under its own name until the test ends."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # ``tracing`` imports ``metrics`` by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tracing(monkeypatch):
    """perfbench's ``tracing`` module and a ``Patches`` whose swaps are undone afterwards."""
    _load("metrics", monkeypatch)
    module = _load("tracing", monkeypatch)
    patches = module.Patches()
    try:
        yield module, patches
    finally:
        patches.undo()


def _cli(*argv):
    assert topomap.cli.main(list(argv)) == 0, argv  # looked up per call, as perfbench's workloads do


def test_every_simulation_is_captured(tracing, data_dir, capsys):
    module, patches = tracing
    capture = module.SimCapture()
    capture.install(patches)
    chain, grid = data_dir / "chain_scenario.json", data_dir / "grid_hw_publisher.json"
    spec = load_scenario(grid).grid
    cells = len(spec.sizes) * len(spec.hw_sub_counts)
    chain_scn = load_scenario(chain)
    target = topomap.SpeedupTarget("hw", 10_000, 8, 0, "hw", 1.9)
    cases = [
        ("cli simulate on the chain", lambda: _cli("simulate", "--scenario", str(chain)), 1),
        ("compare on a grid", lambda: _cli("compare", "--scenario", str(grid), "--policies", "smt,multi-hw-sub"), 2 * cells),
        ("compare on the chain", lambda: _cli("compare", "--scenario", str(chain), "--policies", "smt,multi-hw-sub"), 2),
        ("run_chain_scenario", lambda: topomap.run_chain_scenario(chain_scn, PLATFORM, chain_scn.chain), 1),
        ("simulated_speedup", lambda: topomap.calibrate.simulated_speedup(target, PLATFORM), 2),
    ]
    for label, run, runs in cases:
        run()
        assert len(capture.take()) == runs, label
    capsys.readouterr()


def test_cli_simulate_calls_are_spanned(tracing, data_dir, capsys):
    """The scenario reader's graph load and the policy's mapping are spanned as the simulation is."""
    module, patches = tracing
    tracer = module.Tracer("visibility")
    tracer.install(patches)
    _cli("simulate", "--scenario", str(data_dir / "chain_scenario.json"))
    spans = Counter(span[0] for span in tracer.spans)
    assert spans.pop("gateway.step") > 0
    assert spans == {
        "cli.main": 1,
        "simulator.load_scenario": 1,
        "graph.load_document": 1,
        "graph.parse_document": 1,
        "mapping.map_communication": 1,
        "simulator.simulate": 1,
    }
    capsys.readouterr()
