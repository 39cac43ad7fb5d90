import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

from topomap.cli import main
from topomap.gateway import transition_table
from topomap.graph import DanglingTopicWarning, serialize_graph
from topomap.platform_model import PlatformModel
from topomap.scenario import load_scenario, star_graph
from topomap.simulator import STATS_HEADER, TRACE_HEADER, simulate, trace_to_csv


def run_cli(*argv):
    return main(list(argv))


def buffered_env():
    """The environment with stdout block-buffered, as it is by default when it is a pipe."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.fixture()
def workdir(tmp_path, data_dir):
    """Scratch directory with the packaged reference graph copied in."""
    shutil.copy(data_dir / "reference_graph.json", tmp_path / "graph.json")
    return tmp_path


def write_scenario(workdir, **extra):
    doc = {
        "graph": "graph.json",
        "policy": "multi-hw-sub",
        "seed": 5,
        "workload": [{"publisher": "1", "topic": "A", "count": 3, "period_us": 1000}],
    }
    doc.update(extra)
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _endpointless_graph(tmp_path):
    """Two nodes joined by topic t, and a topic nobody publishes or subscribes."""
    doc = {
        "nodes": [{"id": "pub0"}, {"id": "sub0"}],
        "topics": [
            {"id": "orphan", "message_size_bytes": 64, "publish_rate_hz": 1.0},
            {"id": "t", "message_size_bytes": 4096, "publish_rate_hz": 10.0},
        ],
        "publishes": [{"node": "pub0", "topic": "t"}],
        "subscribes": [{"topic": "t", "node": "sub0"}],
        "node_mapping": {"pub0": "SW", "sub0": "HW"},
    }
    path = tmp_path / "endpointless.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestMap:
    def test_reference_graph_report(self, workdir, capsys):
        out = workdir / "report.json"
        code = run_cli(
            "map", "--graph", str(workdir / "graph.json"),
            "--policy", "multi-hw-sub", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["comm_mapping"] == {
            "A": "GW", "B": "HMT", "C": "GW", "D": "SMT", "E": "GW",
        }
        assert report["boundary_crossings"] == 3
        assert report["boundary_crossings_baseline_all_smt"] == 10
        assert report["boundary_crossings_classified_smt_hmt"] == 8
        assert set(report["rationales"]) == set("ABCDE")

    def test_writes_stdout_by_default(self, workdir, capsys):
        code = run_cli("map", "--graph", str(workdir / "graph.json"), "--policy", "smt")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["comm_mapping"].values()) == {"SMT"}

    def test_all_software_graph_maps_to_smt_only(self, tmp_path, capsys):
        doc = {
            "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "topics": [{"id": "x", "message_size_bytes": 4096, "publish_rate_hz": 10.0}],
            "publishes": [{"node": "a", "topic": "x"}],
            "subscribes": [{"topic": "x", "node": "b"}, {"topic": "x", "node": "c"}],
            "node_mapping": {"a": "SW", "b": "SW", "c": "SW"},
        }
        path = tmp_path / "sw_graph.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for policy in ("smt", "multi-hw-sub", "cost"):
            assert run_cli("map", "--graph", str(path), "--policy", policy) == 0
            report = json.loads(capsys.readouterr().out)
            assert set(report["comm_mapping"].values()) == {"SMT"}
            assert report["boundary_crossings"] == 0

    @pytest.mark.parametrize("policy", ["smt", "multi-hw-sub", "cost"])
    def test_endpointless_topic_stays_on_smt(self, tmp_path, capsys, policy):
        path = _endpointless_graph(tmp_path)
        with pytest.warns(DanglingTopicWarning, match="orphan"):
            assert run_cli("map", "--graph", str(path), "--policy", policy) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["comm_mapping"]["orphan"] == "SMT"
        assert "no endpoints" in report["rationales"]["orphan"]
        assert report["boundary_crossings_classified_smt_hmt"] == 1

    def test_missing_node_mapping_is_input_error(self, tmp_path, capsys):
        doc = {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "topics": [{"id": "t", "message_size_bytes": 8, "publish_rate_hz": 1}],
            "publishes": [{"node": "a", "topic": "t"}],
            "subscribes": [{"topic": "t", "node": "b"}],
        }
        path = tmp_path / "nomap.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("map", "--graph", str(path), "--policy", "cost") == 2
        assert "node_mapping" in capsys.readouterr().err

    def test_unknown_policy_is_input_error(self, workdir, capsys):
        code = run_cli("map", "--graph", str(workdir / "graph.json"), "--policy", "fastest")
        assert code == 2
        err = capsys.readouterr().err
        assert "fastest" in err and "multi-hw-sub" in err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert run_cli("map", "--graph", str(path), "--policy", "cost") == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("map", "--graph", str(tmp_path / "absent.json"), "--policy", "cost") == 2

    def test_semantic_error_is_validation_error(self, tmp_path, capsys):
        doc = {
            "nodes": [{"id": "a"}, {"id": "a"}],
            "topics": [],
            "publishes": [],
            "subscribes": [],
            "node_mapping": {"a": "HW"},
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("map", "--graph", str(path), "--policy", "cost") == 3
        assert "a" in capsys.readouterr().err


class TestSimulate:
    def test_writes_trace_and_stats(self, workdir, capsys):
        scenario = write_scenario(workdir)
        trace = workdir / "trace.csv"
        stats = workdir / "stats.csv"
        code = run_cli(
            "simulate", "--scenario", str(scenario),
            "--trace", str(trace), "--stats", str(stats),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deliveries" in out and "events" in out
        trace_lines = trace.read_text(encoding="utf-8").splitlines()
        assert trace_lines[0] == ",".join(TRACE_HEADER)
        assert len(trace_lines) > 1
        stats_lines = stats.read_text(encoding="utf-8").splitlines()
        assert stats_lines[0] == ",".join(STATS_HEADER)
        # three subscribers of topic A, one stats row each
        assert len(stats_lines) == 4

    @pytest.mark.parametrize("flag, header", [("--trace", TRACE_HEADER), ("--stats", STATS_HEADER)])
    def test_csv_on_stdout_stays_parseable(self, workdir, capsys, flag, header):
        scenario = write_scenario(workdir)
        assert run_cli("simulate", "--scenario", str(scenario), flag, "-") == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0] == list(header)
        assert len(rows) > 1 and all(len(row) == len(header) for row in rows)
        assert captured.err.startswith("simulated ")

    def test_both_csvs_on_stdout_rejected(self, workdir, capsys):
        scenario = write_scenario(workdir)
        assert run_cli("simulate", "--scenario", str(scenario), "--trace", "-", "--stats", "-") == 2
        _one_line_error(capsys, "stdout")

    @pytest.mark.parametrize("stats", ["x.csv", "./x.csv"])
    def test_both_csvs_to_one_file_rejected(self, workdir, capsys, monkeypatch, stats):
        scenario = write_scenario(workdir)
        monkeypatch.chdir(workdir)
        assert run_cli("simulate", "--scenario", str(scenario), "--trace", "x.csv", "--stats", stats) == 2
        _one_line_error(capsys, "one file")
        assert not (workdir / "x.csv").exists()

    @pytest.mark.parametrize("case", ["golden_gw_star", "packaged_chain"])
    def test_trace_bytes_equal_trace_to_csv(self, tmp_path, data_dir, capsys, case):
        if case == "packaged_chain":
            scenario = data_dir / "chain_scenario.json"
        else:
            # the gateway star of tests/test_engine_golden.py
            graph, node_mapping = star_graph("sw", 16, 8, 100_000)
            (tmp_path / "star.json").write_text(serialize_graph(graph, node_mapping), encoding="utf-8")
            doc = {
                "graph": "star.json",
                "policy": "multi-hw-sub",
                "seed": 4,
                "workload": [{"publisher": "pub0", "topic": "t0", "count": 40, "period_us": 5000.0}],
            }
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(doc), encoding="utf-8")
        expected = trace_to_csv(simulate(load_scenario(scenario), PlatformModel()))
        trace = tmp_path / "trace.csv"
        assert run_cli("simulate", "--scenario", str(scenario), "--trace", str(trace)) == 0
        assert trace.read_bytes() == expected.encode("utf-8")
        capsys.readouterr()
        assert run_cli("simulate", "--scenario", str(scenario), "--trace", "-") == 0
        assert capsys.readouterr().out == expected

    def test_seed_env_override(self, workdir, capsys, monkeypatch):
        scenario = write_scenario(workdir)
        trace = workdir / "trace.csv"

        def run_with(seed):
            if seed is None:
                monkeypatch.delenv("TOPOMAP_SEED", raising=False)
            else:
                monkeypatch.setenv("TOPOMAP_SEED", seed)
            assert run_cli("simulate", "--scenario", str(scenario), "--trace", str(trace)) == 0
            return trace.read_text(encoding="utf-8")

        default = run_with(None)
        override = run_with("1234")
        again = run_with("1234")
        assert override != default
        assert override == again

    def test_bad_seed_env_is_input_error(self, workdir, capsys, monkeypatch):
        scenario = write_scenario(workdir)
        monkeypatch.setenv("TOPOMAP_SEED", "not-a-number")
        assert run_cli("simulate", "--scenario", str(scenario)) == 2
        assert "TOPOMAP_SEED" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path):
        assert run_cli("simulate", "--scenario", str(tmp_path / "none.json")) == 2

    def test_missing_graph_file_is_input_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"graph": "none.json", "policy": "smt"}), encoding="utf-8")
        assert run_cli("simulate", "--scenario", str(scenario)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "none.json" in lines[0]

    def test_dangling_topic_warning_is_one_line(self, tmp_path):
        graph = _endpointless_graph(tmp_path)
        scenario = tmp_path / "scenario.json"
        doc = {"graph": graph.name, "policy": "smt", "workload": [{"publisher": "pub0", "topic": "t"}]}
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "topomap.cli", "simulate", "--scenario", str(scenario), "--stats", "-"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == "warning: topic 'orphan' has no endpoints\nsimulated 3 events, 1 deliveries\n"

    def test_warning_format_is_restored(self, tmp_path, capsys):
        graph = _endpointless_graph(tmp_path)
        before = warnings.formatwarning
        with pytest.warns(DanglingTopicWarning, match="orphan"):
            assert run_cli("map", "--graph", str(graph), "--policy", "smt") == 0
        assert warnings.formatwarning is before

    def test_policy_leaves_endpointless_topic_on_smt(self, tmp_path, capsys):
        graph = _endpointless_graph(tmp_path)
        scenario = tmp_path / "scenario.json"
        doc = {"graph": graph.name, "policy": "smt", "workload": [{"publisher": "pub0", "topic": "t", "count": 2}]}
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(DanglingTopicWarning, match="orphan"):
            assert run_cli("simulate", "--scenario", str(scenario)) == 0
        assert "2 deliveries" in capsys.readouterr().out


def _workload(**entry):
    base = {"publisher": "1", "topic": "A", "count": 3, "period_us": 1000}
    return {"workload": [{**base, **entry}]}


def _grid(**fields):
    base = {"publisher_kind": "hw", "sizes": [12000], "hw_sub_counts": [2], "reps": 2}
    return {"grid": {**base, **fields}, "workload": []}


class TestClosedOutputPipe:
    """A reader that closes the output pipe ends the command with exit 1, not a traceback."""

    def test_trace_reader_closes_after_one_line(self, tmp_path):
        # about 10k trace rows, far more than a pipe buffers, so the writer meets the closed pipe
        graph, node_mapping = star_graph("sw", 32, 0, 4096)
        (tmp_path / "star.json").write_text(serialize_graph(graph, node_mapping), encoding="utf-8")
        doc = {
            "graph": "star.json",
            "policy": "smt",
            "workload": [{"publisher": "pub0", "topic": "t0", "count": 100, "period_us": 1000.0}],
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "topomap.cli", "simulate", "--scenario", str(scenario), "--trace", "-"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=buffered_env(),
        )
        assert proc.stdout.readline() == (",".join(TRACE_HEADER) + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err

    @pytest.mark.parametrize("command", ["fsm-export", "map"])
    def test_pipe_closed_before_any_output(self, data_dir, command):
        # a short output is still in the stdout buffer when the command returns
        argv = [command]
        if command == "map":
            argv += ["--graph", str(data_dir / "reference_graph.json"), "--policy", "smt"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "topomap.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=buffered_env(),
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_in_memory_stdout(self, workdir, capsys, monkeypatch):
        def closed(result, out):
            raise BrokenPipeError

        monkeypatch.setattr("topomap.cli.write_trace_csv", closed)
        scenario = write_scenario(workdir)
        assert run_cli("simulate", "--scenario", str(scenario), "--trace", "-") == 1
        assert capsys.readouterr().err == ""


class TestScenarioValidation:
    """Out-of-range or mistyped scenario fields are input errors, not runs."""

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"jitter_pct": 3.0}, "jitter_pct"),
            ({"jitter_pct": -0.1}, "jitter_pct"),
            (_workload(size_bytes="big"), "size_bytes"),
            (_workload(size_bytes=-5), "size_bytes"),
            (_workload(period_us=-100), "period_us"),
            (_workload(count=-1), "count"),
            (_workload(count=2.5), "count"),
            (_grid(sizes=[0]), "grid.sizes"),
            (_grid(sizes=["big"]), "grid.sizes"),
            (_grid(reps=0), "grid.reps"),
            (_grid(hw_sub_counts=[-1]), "grid.hw_sub_counts"),
            (_grid(sw_sub_count=-1), "grid.sw_sub_count"),
            ({"seed": "five"}, "seed"),
            (_workload(topic=["A"]), "topic"),
            # nanosecond values that no longer fit a finite int
            (_workload(period_us=1e308), "period_us"),
            ({"compute_us": {"2": 1e308}}, "compute_us.2"),
            # a relay priced under a misspelled node would run at 0 us instead
            ({"compute_us": {"gausian_blur": 400.0}}, "compute_us: unknown keys ['gausian_blur']"),
            (_grid(period_us=1e308), "grid.period_us"),
            # byte counts that are no longer exact floats
            (_workload(size_bytes=10**400), "size_bytes"),
            (_workload(size_bytes=2**53), "size_bytes"),
            (_grid(sizes=[2**53]), "grid.sizes"),
            # misspelled keys are named, not run around with their defaults
            ({"jiter_pct": 0.3}, "scenario: unknown keys ['jiter_pct']"),
            (_workload(cont=5), "workload[0]: unknown keys ['cont']"),
            (_grid(rep=2, size=[1]), "grid: unknown keys ['rep', 'size']"),
            (_grid(publisher_kind="HW"), "grid.publisher_kind must be 'hw' or 'sw'"),
            # a mistyped transport is named with its topic, and the choices listed
            (
                {"comm_mapping": {"t_cam": "XYZ"}},
                "unknown comm_mapping.t_cam transport 'XYZ' (choose from: SMT, HMT, GW)",
            ),
            ({"comm_mapping": {"t_cam": 5}}, "unknown comm_mapping.t_cam transport 5 (choose from: SMT, HMT, GW)"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            # the document already holds a policy, which the mapping would silently override
            ({"comm_mapping": dict.fromkeys("ABCDE", "SMT")}, "'policy' and 'comm_mapping' exclude each other"),
            # a grid without cells, or with a cell that has no subscriber, compares nothing
            (_grid(sizes=[]), "grid.sizes: expected at least one size"),
            (_grid(hw_sub_counts=[]), "grid.hw_sub_counts: expected at least one count"),
            (_grid(hw_sub_counts=[2, 0]), "grid.hw_sub_counts[]: 0 with grid.sw_sub_count 0"),
            # a grid's star cells have no chain, so the chain would go unchecked
            ({**_grid(), "chain": ["1", "2"]}, "'grid' and 'chain' exclude each other"),
            ({**_grid(), "chain": []}, "'grid' and 'chain' exclude each other"),
        ],
    )
    def test_rejected_with_one_line_error(self, workdir, capsys, extra, field):
        scenario = write_scenario(workdir, **extra)
        assert run_cli("simulate", "--scenario", str(scenario)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and field in lines[0]

    def test_negative_seed_loads(self, workdir):
        assert load_scenario(write_scenario(workdir, seed=-3)).seed == -3

    def test_grid_publisher_kind_names_the_value(self, workdir, capsys):
        scenario = write_scenario(workdir, **_grid(publisher_kind="HW"))
        assert run_cli("simulate", "--scenario", str(scenario)) == 2
        _one_line_error(capsys, "grid.publisher_kind must be 'hw' or 'sw', got 'HW'")

    def test_unknown_policy_lists_the_choices(self, workdir, capsys):
        # the same message as map's --policy
        scenario = write_scenario(workdir, policy="fast")
        assert run_cli("simulate", "--scenario", str(scenario)) == 2
        line = _one_line_error(capsys, "policy")
        assert line == "error: unknown policy 'fast' (choose from: cost, multi-hw-sub, smt)"
        assert run_cli("map", "--graph", str(workdir / "graph.json"), "--policy", "fast") == 2
        assert _one_line_error(capsys, "policy") == line

    def test_packaged_chain_with_misspelled_keys_is_input_error(self, tmp_path, data_dir, capsys):
        shutil.copy(data_dir / "chain_graph.json", tmp_path / "chain_graph.json")
        doc = json.loads((data_dir / "chain_scenario.json").read_text(encoding="utf-8"))
        doc["jiter_pct"] = 0.3
        doc["workload"][0]["cont"] = 5
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("simulate", "--scenario", str(scenario)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: scenario: unknown keys ['jiter_pct']"]

    def test_in_range_values_run(self, workdir, capsys):
        scenario = write_scenario(workdir, jitter_pct=0.0, **_workload(size_bytes=64, count=0, period_us=0))
        assert run_cli("simulate", "--scenario", str(scenario)) == 0


class TestScenarioMappingMismatch:
    """A comm_mapping must name exactly the graph's topics; workload topics must exist."""

    @pytest.fixture()
    def chain_dir(self, tmp_path, data_dir):
        shutil.copy(data_dir / "chain_graph.json", tmp_path / "graph.json")
        return tmp_path

    def run_one(self, chain_dir, capsys, **extra):
        doc = {"graph": "graph.json", "workload": [{"publisher": "camera", "topic": "t_cam"}], **extra}
        scenario = chain_dir / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli("simulate", "--scenario", str(scenario))
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return code, lines[0]

    def test_missing_topic_named(self, chain_dir, capsys):
        code, line = self.run_one(chain_dir, capsys, comm_mapping={"t_cam": "SMT"})
        assert code == 3
        assert "missing ['t_blur', 't_img', 't_lane', 't_poly'], unknown []" in line

    def test_unknown_topic_named(self, chain_dir, capsys):
        mapping = {t: "SMT" for t in ("t_cam", "t_img", "t_blur", "t_lane", "t_poly")}
        code, line = self.run_one(chain_dir, capsys, comm_mapping={**mapping, "t_bogus": "GW"})
        assert code == 3
        assert "missing [], unknown ['t_bogus']" in line

    def test_unknown_workload_topic_named(self, chain_dir, capsys):
        workload = [{"publisher": "camera", "topic": "t_nope"}]
        code, line = self.run_one(chain_dir, capsys, policy="smt", workload=workload)
        assert code == 3
        assert line == "error: unknown topic 't_nope'"


class TestChainScenario:
    """The packaged chain scenario declares its chain, and every command that runs it runs every hop."""

    HOPS = {
        ("t_cam", "image_compensation"),
        ("t_img", "gaussian_blur"),
        ("t_blur", "lane_planner"),
        ("t_lane", "polyfit"),
        ("t_poly", "lane_control"),
    }

    def test_simulate_runs_every_hop(self, data_dir, capsys):
        assert run_cli("simulate", "--scenario", str(data_dir / "chain_scenario.json"), "--stats", "-") == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert len(rows) == 8 and {row["count"] for row in rows} == {"500"}
        assert self.HOPS <= {(row["topic"], row["subscriber"]) for row in rows}
        assert captured.err == "simulated 13501 events, 4000 deliveries\n"

    def test_compare_lists_every_hop(self, data_dir, capsys):
        scenario = str(data_dir / "chain_scenario.json")
        assert run_cli("compare", "--scenario", scenario, "--policies", "smt,multi-hw-sub") == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert self.HOPS <= {(row["topic"], row["subscriber"]) for row in rows}

    @pytest.mark.parametrize("argv", [["simulate"], ["compare", "--policies", "smt,multi-hw-sub"]], ids=lambda a: a[0])
    @pytest.mark.parametrize(
        "chain, message",
        [
            ("camera", "chain: expected a list, got 'camera'"),
            (["camera", 5], "chain[]: expected a string, got 5"),
            (["camera", "no_such_node"], "chain: ['no_such_node'] name no node of the graph"),
            (["camera", "polyfit"], "chain: no topic connects 'camera' to 'polyfit'"),
        ],
        ids=["not a list", "non-string", "unknown node", "unconnected hop"],
    )
    def test_bad_chain_is_input_error(self, tmp_path, data_dir, capsys, argv, chain, message):
        shutil.copy(data_dir / "chain_graph.json", tmp_path / "chain_graph.json")
        doc = json.loads((data_dir / "chain_scenario.json").read_text(encoding="utf-8"))
        doc["chain"] = chain
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(*argv, "--scenario", str(scenario)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_compare_rejects_a_grid_with_a_chain(self, tmp_path, data_dir, capsys):
        # compare runs a grid's star cells, which have no chain, so the chain would go unchecked
        shutil.copy(data_dir / "reference_graph.json", tmp_path / "reference_graph.json")
        doc = json.loads((data_dir / "grid_hw_publisher.json").read_text(encoding="utf-8"))
        doc["chain"] = ["no_such_node", "also_not"]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("compare", "--scenario", str(scenario), "--policies", "smt,multi-hw-sub") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: scenario: 'grid' and 'chain' exclude each other; a grid's star cells have no chain"
        ]


def _one_line_error(capsys, field):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and field in lines[0]
    return lines[0]


class TestUnusablePath:
    """A path through a regular file, or a file where a directory should be, is an input error (exit 2)."""

    @pytest.mark.parametrize("command", ["map", "fsm-export", "report"])
    def test_rejected_with_one_line_error(self, workdir, capsys, command):
        blocker = workdir / "graph.json"
        comparison = workdir / "cmp.csv"
        header = "publisher_kind,size_bytes,hw_subs,speedup_hw,speedup_sw\n"
        comparison.write_text(header + "hw,100,2,1.5,\n", encoding="utf-8")
        argv = {
            "map": ["map", "--graph", str(blocker / "g.json"), "--policy", "cost"],
            "fsm-export": ["fsm-export", "--out", str(blocker / "x.json")],
            "report": ["report", "--in", str(comparison), "--out-dir", str(blocker)],
        }[command]
        assert run_cli(*argv) == 2
        _one_line_error(capsys, str(blocker))


class TestPlatformValidation:
    """A platform document is type- and range-checked when read (exit 3, one line)."""

    SLOW = 0.4  # rounds to 0 B/s in the simulator's whole-byte charges

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"osif_roundtrip_us": "30"}, "osif_roundtrip_us"),
            ({"osif_roundtrip_us": None}, "osif_roundtrip_us"),
            ({"jitter_pct": "0.1"}, "jitter_pct"),
            ({"hmt_bandwidth_bytes_per_s": float("inf")}, "hmt_bandwidth_bytes_per_s"),
            ({"delegate_publish_us": float("nan")}, "delegate_publish_us"),
            ({"memif_bandwidth_bytes_per_s": True}, "memif_bandwidth_bytes_per_s"),
            # finite, but its nanosecond value is not
            ({"osif_roundtrip_us": 1e308}, "osif_roundtrip_us"),
            ({"sw_dds_us_per_byte": 1e300}, "sw_dds_us_per_byte"),
            (
                {
                    "memif_bandwidth_bytes_per_s": SLOW,
                    "hmt_bandwidth_bytes_per_s": SLOW,
                    "sw_copy_bandwidth_bytes_per_s": SLOW,
                },
                "memif_bandwidth_bytes_per_s",
            ),
        ],
    )
    def test_rejected_by_map_and_simulate(self, workdir, capsys, fields, field):
        platform = workdir / "platform.json"
        platform.write_text(json.dumps(fields), encoding="utf-8")
        graph = str(workdir / "graph.json")
        assert run_cli("map", "--graph", graph, "--policy", "cost", "--platform", str(platform)) == 3
        _one_line_error(capsys, field)
        scenario = write_scenario(workdir, jitter_pct=0.0)
        assert run_cli("simulate", "--scenario", str(scenario), "--platform", str(platform)) == 3
        _one_line_error(capsys, field)

    def test_non_object_document_is_input_error(self, workdir, capsys):
        platform = workdir / "platform.json"
        platform.write_text("[]", encoding="utf-8")
        graph = str(workdir / "graph.json")
        assert run_cli("map", "--graph", graph, "--policy", "cost", "--platform", str(platform)) == 2
        _one_line_error(capsys, "platform document must be a JSON object")

    def test_malformed_json_is_input_error(self, workdir, capsys):
        platform = workdir / "platform.json"
        platform.write_text('{"osif_roundtrip_us": ', encoding="utf-8")
        graph = str(workdir / "graph.json")
        assert run_cli("map", "--graph", graph, "--policy", "cost", "--platform", str(platform)) == 2
        _one_line_error(capsys, "invalid JSON")


class TestGraphValidation:
    """Malformed graph sections are input errors (exit 2); bad rates are validation errors (exit 3)."""

    @pytest.mark.parametrize(
        "change, code, field",
        [
            ({"nodes": 5}, 2, "nodes"),
            ({"publishes": 3}, 2, "publishes"),
            ({"publish_rate_hz": None}, 3, "publish_rate_hz"),
            ({"publish_rate_hz": "fast"}, 3, "publish_rate_hz"),
            ({"publish_rate_hz": float("inf")}, 3, "publish_rate_hz"),
            ({"publish_rate_hz": True}, 3, "publish_rate_hz"),
            ({"message_size_bytes": 10**400}, 3, "message_size_bytes"),
            ({"message_size_bytes": 2**53}, 3, "message_size_bytes"),
            ({"nodes": [{"id": None}]}, 2, "nodes[0].id"),
            ({"nodes": [{"id": ["b"]}]}, 2, "nodes[0].id"),
            ({"topics": [{"id": 7, "message_size_bytes": 10, "publish_rate_hz": 1.0}]}, 2, "topics[0].id"),
            ({"publishes": [{"node": ["1"], "topic": "A"}]}, 2, "publishes[0].node"),
            ({"subscribes": [{"topic": None, "node": "2"}]}, 2, "subscribes[0].topic"),
            # a whole document whose integer ids would agree once turned into strings
            (
                {
                    "nodes": [{"id": 1}, {"id": "2"}],
                    "topics": [{"id": "A", "message_size_bytes": 10, "publish_rate_hz": 1.0}],
                    "publishes": [{"node": 1, "topic": "A"}],
                    "subscribes": [{"topic": "A", "node": "2"}],
                    "node_mapping": {"1": "HW", "2": "SW"},
                },
                2,
                "nodes[0].id",
            ),
            ({"nodes": [5]}, 2, "nodes[0]: expected an object"),
            ({"topics": [5]}, 2, "topics[0]: expected an object"),
            ({"publishes": ["1"]}, 2, "publishes[0]: expected an object"),
            ({"subscribes": [None]}, 2, "subscribes[0]: expected an object"),
            ({"node_mapping": ["1"]}, 2, "node_mapping: expected an object"),
            (
                {"publishes": [{"node": "1", "topic": "Z"}]},
                3,
                "publish edge ('1', 'Z'): unknown topic 'Z'",
            ),
            (
                {"subscribes": [{"topic": "A", "node": "99"}]},
                3,
                "subscribe edge ('A', '99'): unknown node '99'",
            ),
            (
                {"subscribes": [{"topic": "A", "node": "2"}, {"topic": "A", "node": "2"}]},
                3,
                "duplicate subscribe edge ('A', '2')",
            ),
        ],
    )
    def test_rejected_with_one_line_error(self, workdir, capsys, change, code, field):
        path = workdir / "graph.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        if change.keys() & {"publish_rate_hz", "message_size_bytes"}:
            doc["topics"][0].update(change)
        else:
            doc.update(change)
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("map", "--graph", str(path), "--policy", "cost") == code
        _one_line_error(capsys, field)

    @pytest.mark.parametrize("command", ["map", "simulate", "compare"])
    @pytest.mark.parametrize("node, placement", [("gw.t", "SW"), ("gw.t.hmt", "HW")])
    def test_node_holding_a_gateway_id_is_validation_error(self, tmp_path, capsys, command, node, placement):
        # the gateway of t would discard the node's messages as its own loop-back
        subscribers = {"h1": "HW", "h2": "HW", "s1": "SW"}
        doc = {
            "nodes": [{"id": n} for n in (node, *subscribers)],
            "topics": [{"id": "t", "message_size_bytes": 4096, "publish_rate_hz": 10.0}],
            "publishes": [{"node": node, "topic": "t"}],
            "subscribes": [{"topic": "t", "node": n} for n in subscribers],
            "node_mapping": {node: placement, **subscribers},
        }
        (tmp_path / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
        scenario = str(write_scenario(tmp_path, workload=[{"publisher": node, "topic": "t", "count": 3}]))
        argv = {
            "map": ("map", "--graph", str(tmp_path / "graph.json"), "--policy", "multi-hw-sub"),
            "simulate": ("simulate", "--scenario", scenario),
            "compare": ("compare", "--scenario", scenario, "--policies", "smt,multi-hw-sub"),
        }[command]
        assert run_cli(*argv) == 3
        _one_line_error(capsys, f"node ids must not be a topic's gateway ids, shared ids: [{node!r}]")


class TestUndecodableDocument:
    """A document that cannot be read or decoded is an input error: exit 2, one line naming the file."""

    # every JSON document a command reads, with bad.json in its place; scenario.json names bad.json as its graph
    JSON_READERS = {
        "map-graph": ["map", "--graph", "bad.json", "--policy", "cost"],
        "map-platform": ["map", "--graph", "graph.json", "--policy", "cost", "--platform", "bad.json"],
        "simulate-scenario": ["simulate", "--scenario", "bad.json"],
        "scenario-graph": ["simulate", "--scenario", "scenario.json"],
        "calibrate-targets": ["calibrate", "--targets", "bad.json"],
    }
    READERS = {**JSON_READERS, "report-in": ["report", "--in", "bad.json", "--out-dir", "out"]}

    @staticmethod
    def run_on(workdir, monkeypatch, argv, data: bytes) -> int:
        monkeypatch.chdir(workdir)
        (workdir / "bad.json").write_bytes(data)
        (workdir / "scenario.json").write_text('{"graph": "bad.json"}', encoding="utf-8")
        return run_cli(*argv)

    @pytest.mark.parametrize("argv", READERS.values(), ids=READERS)
    def test_rejected_with_one_line_error(self, workdir, capsys, monkeypatch, argv):
        assert self.run_on(workdir, monkeypatch, argv, b"\xff\xfe{}") == 2
        assert _one_line_error(capsys, "codec can't decode").endswith(" in 'bad.json'")

    @pytest.mark.parametrize("content", ["deep", "digits"])
    @pytest.mark.parametrize("argv", JSON_READERS.values(), ids=JSON_READERS)
    def test_json_the_interpreter_cannot_parse(self, workdir, capsys, monkeypatch, argv, content):
        if content == "digits" and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter converts integer literals of any length")
        data = {"deep": b"[" * 10**6, "digits": b'{"x": ' + b"1" * 5000 + b"}"}[content]
        assert self.run_on(workdir, monkeypatch, argv, data) == 2
        assert _one_line_error(capsys, "invalid JSON").endswith(" in 'bad.json'")

    def test_oversized_csv_cell_names_file_and_line(self, workdir, capsys, monkeypatch):
        monkeypatch.chdir(workdir)
        (workdir / "big.csv").write_text("publisher_kind,size_bytes\nhw," + "x" * 200_000 + "\n", encoding="utf-8")
        assert run_cli("report", "--in", "big.csv", "--out-dir", "out") == 2
        _one_line_error(capsys, "'big.csv' line 2: field larger than field limit")


class TestCostPolicyOnePlatform:
    """map and simulate price a cost topic on the same platform document.

    On a software-publisher star with two hardware subscribers and 100 kB
    messages, the default platform (HMT as fast as MEMIF) keeps the topic
    on SMT; with HMT at 4.8 GB/s a gateway wins.
    """

    COUNT = 3

    @pytest.fixture()
    def star_dir(self, tmp_path):
        graph, node_mapping = star_graph("sw", 2, 0, 100_000)
        (tmp_path / "star.json").write_text(serialize_graph(graph, node_mapping), encoding="utf-8")
        doc = {
            "graph": "star.json",
            "policy": "cost",
            "jitter_pct": 0.0,
            "workload": [{"publisher": "pub0", "topic": "t0", "count": self.COUNT, "period_us": 10_000}],
        }
        (tmp_path / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
        fast_hmt = PlatformModel(hmt_bandwidth_bytes_per_s=4.8e9)
        (tmp_path / "fast_hmt.json").write_text(fast_hmt.to_json(), encoding="utf-8")
        return tmp_path

    def picks(self, star_dir, capsys, *platform):
        assert run_cli("map", "--graph", str(star_dir / "star.json"), "--policy", "cost", *platform) == 0
        mapped = json.loads(capsys.readouterr().out)["comm_mapping"]["t0"]
        trace = star_dir / "trace.csv"
        assert run_cli("simulate", "--scenario", str(star_dir / "scenario.json"), "--trace", str(trace), *platform) == 0
        memif = sum(1 for line in trace.read_text(encoding="utf-8").splitlines() if ",MEMIF_TRANSFER," in line)
        return mapped, memif

    def test_default_platform_keeps_smt(self, star_dir, capsys):
        # SMT: each hardware subscriber pulls its own copy over MEMIF
        assert self.picks(star_dir, capsys) == ("SMT", 2 * self.COUNT)

    def test_platform_document_reaches_simulate(self, star_dir, capsys):
        # GW: one MEMIF crossing per message
        assert self.picks(star_dir, capsys, "--platform", str(star_dir / "fast_hmt.json")) == ("GW", self.COUNT)


class TestCompare:
    def grid_doc(self):
        return {
            "grid": {
                "publisher_kind": "hw",
                "sizes": [12000, 120000],
                "hw_sub_counts": [1, 2],
                "sw_sub_count": 0,
                "reps": 2,
                "period_us": 300000,
            },
            "workload": [],
        }

    def test_grid_comparison_csv(self, workdir, capsys):
        scenario = write_scenario(workdir, **self.grid_doc())
        out = workdir / "compare.csv"
        code = run_cli(
            "compare", "--scenario", str(scenario),
            "--policies", "smt,multi-hw-sub", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "publisher_kind,size_bytes,hw_subs,"
            "t_hw_us_smt,t_sw_us_smt,t_hw_us_multi-hw-sub,t_sw_us_multi-hw-sub,"
            "speedup_hw,speedup_sw"
        )
        assert len(lines) == 5

    def test_non_grid_comparison(self, workdir, capsys):
        scenario = write_scenario(workdir)
        code = run_cli("compare", "--scenario", str(scenario), "--policies", "smt,multi-hw-sub")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "topic,subscriber,mean_us_smt,mean_us_multi-hw-sub,speedup"
        assert len(lines) == 4  # topic A has three subscribers

    def test_rerun_is_byte_identical(self, workdir):
        scenario = write_scenario(workdir, **self.grid_doc())
        out_a = workdir / "a.csv"
        out_b = workdir / "b.csv"
        for out in (out_a, out_b):
            code = run_cli(
                "compare", "--scenario", str(scenario),
                "--policies", "smt,multi-hw-sub", "--out", str(out),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_policies_must_be_two(self, workdir, capsys):
        scenario = write_scenario(workdir)
        assert run_cli("compare", "--scenario", str(scenario), "--policies", "smt") == 2

    def test_unknown_policy(self, workdir, capsys):
        scenario = write_scenario(workdir)
        assert run_cli("compare", "--scenario", str(scenario), "--policies", "smt,best") == 2

    @pytest.mark.parametrize("grid", [False, True], ids=["means", "grid"])
    @pytest.mark.parametrize("policies", ["smt,smt", "multi-hw-sub, multi-hw-sub"])
    def test_same_policy_twice_is_input_error(self, workdir, capsys, grid, policies):
        # the header would name each of the policy's columns twice
        scenario = write_scenario(workdir, **(self.grid_doc() if grid else {}))
        out = workdir / "compare.csv"
        assert run_cli("compare", "--scenario", str(scenario), "--policies", policies, "--out", str(out)) == 2
        _one_line_error(capsys, "twice")
        assert not out.exists()


def _targets(**entry):
    base = {"publisher_kind": "hw", "size_bytes": 10000, "hw_subs": 8, "measure": "hw", "speedup": 1.9}
    return {"targets": [{**base, **entry}]}


class TestCalibrate:
    def test_packaged_targets_fit(self, data_dir, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run_cli(
            "calibrate", "--targets", str(data_dir / "measured_speedups.json"),
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["ok"] is True
        stdout = capsys.readouterr().out
        assert stdout.count("ok") == len(doc["residuals"])

    def test_unreachable_target_exits_4(self, tmp_path, capsys):
        # with one hw subscriber the mapped path is never slower than the
        # baseline, so a slowdown target cannot be fit at any parameters
        targets = {
            "threshold": 0.01,
            "targets": [
                {
                    "publisher_kind": "hw",
                    "size_bytes": 1000,
                    "hw_subs": 1,
                    "measure": "hw",
                    "speedup": 0.25,
                }
            ],
        }
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets), encoding="utf-8")
        assert run_cli("calibrate", "--targets", str(path)) == 4
        captured = capsys.readouterr()
        # the JSON went to stdout, so the residual lines are on stderr
        assert "MISS" in captured.err
        assert "threshold" in captured.err
        assert json.loads(captured.out)["ok"] is False

    @pytest.mark.parametrize("out_arg", [[], ["--out", "-"]], ids=["no-out", "out-dash"])
    def test_json_on_stdout_parses_and_equals_the_out_file(self, data_dir, tmp_path, capsys, out_arg):
        targets = str(data_dir / "measured_speedups.json")
        fit = tmp_path / "fit.json"
        assert run_cli("calibrate", "--targets", targets, "--out", str(fit)) == 0
        to_file = capsys.readouterr()
        assert run_cli("calibrate", "--targets", targets, *out_arg) == 0
        to_stdout = capsys.readouterr()
        json.loads(to_stdout.out)
        assert to_stdout.out.encode("utf-8") == fit.read_bytes()
        # the residual lines move to stderr unchanged
        assert to_stdout.err == to_file.out
        assert to_file.err == ""

    def test_residual_lines_name_sw_subs(self, tmp_path, capsys):
        entry = {"publisher_kind": "sw", "size_bytes": 10000, "hw_subs": 2, "measure": "hw", "speedup": 1.5}
        doc = {"threshold": 10.0, "targets": [{**entry, "sw_subs": 0}, {**entry, "sw_subs": 1}]}
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("calibrate", "--targets", str(path), "--out", str(tmp_path / "fit.json")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "sw->hw size=10000 hw_subs=2 sw_subs=0",
            "sw->hw size=10000 hw_subs=2 sw_subs=1",
        ]

    def test_malformed_targets_document(self, tmp_path, capsys):
        path = tmp_path / "targets.json"
        path.write_text('{"targets": []}', encoding="utf-8")
        assert run_cli("calibrate", "--targets", str(path)) == 2

    def test_malformed_json_targets_document(self, tmp_path, capsys):
        path = tmp_path / "targets.json"
        path.write_text('{"targets": [', encoding="utf-8")
        assert run_cli("calibrate", "--targets", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid JSON")

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"targets": 5}, "targets"),
            ({"targets": ["x"]}, "targets[0]"),
            (_targets(size_bytes="big"), "size_bytes"),
            (_targets(size_bytes=-5), "size_bytes"),
            (_targets(size_bytes="10000"), "size_bytes"),
            (_targets(size_bytes=1500.7), "size_bytes"),
            ({**_targets(), "threshold": -1}, "threshold"),
            (_targets(hw_subs=-1), "hw_subs"),
            (_targets(sw_subs=-2), "sw_subs"),
            (_targets(speedup="fast"), "speedup"),
            (_targets(size_bytes=10**400), "size_bytes"),
            ({**_targets(), "treshold": 0.01}, "treshold"),
            (_targets(sw_sub=3), "targets[0]: unknown keys ['sw_sub']"),
        ],
    )
    def test_rejected_with_one_line_error(self, tmp_path, capsys, doc, field):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("calibrate", "--targets", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and field in lines[0]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"speedup": 0}, "speedup must be a positive number, got 0.0"),
            ({"publisher_kind": "fpga"}, "publisher_kind must be 'hw' or 'sw', got 'fpga'"),
            ({"measure": "both"}, "measure must be 'hw' or 'sw', got 'both'"),
            ({"sw_subs": 0, "measure": "sw"}, "sw-side target needs at least one software subscriber"),
        ],
        ids=["zero-speedup", "publisher-kind", "measure", "sw-measure-without-sw-subs"],
    )
    def test_target_check_names_the_target(self, data_dir, tmp_path, capsys, change, message):
        doc = json.loads((data_dir / "measured_speedups.json").read_text(encoding="utf-8"))
        doc["targets"][3].update(change)
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("calibrate", "--targets", str(path)) == 2
        assert _one_line_error(capsys, message) == f"error: targets[3]: {message}"


class TestFsmExport:
    # the exported protocol, byte for byte; a change here is a protocol change
    SHA256 = "9f76aef44a38370e4849b78b3e1fbdc7c4959998ca1984c4f8d96ed50507fd1a"

    def test_stdout_matches_transition_table(self, capsys):
        assert run_cli("fsm-export") == 0
        assert json.loads(capsys.readouterr().out) == transition_table()

    def test_stdout_bytes_pinned(self, capsys):
        assert run_cli("fsm-export") == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.SHA256

    def test_console_script_entry_point(self, tmp_path):
        out = tmp_path / "fsm.json"
        proc = subprocess.run(
            [sys.executable, "-m", "topomap.cli", "fsm-export", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text(encoding="utf-8")) == transition_table()


class TestReport:
    def comparison_csv(self, workdir):
        scenario = write_scenario(
            workdir,
            grid={
                "publisher_kind": "hw",
                "sizes": [12000, 120000],
                "hw_sub_counts": [1, 2],
                "sw_sub_count": 1,
                "reps": 2,
                "period_us": 300000,
            },
        )
        out = workdir / "compare.csv"
        assert run_cli(
            "compare", "--scenario", str(scenario),
            "--policies", "smt,multi-hw-sub", "--out", str(out),
        ) == 0
        return out

    def test_pivots_both_sides(self, workdir, capsys):
        comparison = self.comparison_csv(workdir)
        out_dir = workdir / "series"
        assert run_cli("report", "--in", str(comparison), "--out-dir", str(out_dir)) == 0
        hw = (out_dir / "speedup_hw_to_hw.csv").read_text(encoding="utf-8").splitlines()
        assert hw[0] == "size_bytes,n1,n2"
        assert [line.split(",")[0] for line in hw[1:]] == ["12000", "120000"]
        sw = (out_dir / "speedup_hw_to_sw.csv").read_text(encoding="utf-8").splitlines()
        assert sw[0] == "size_bytes,n1,n2"
        printed = capsys.readouterr().out.splitlines()
        assert str(out_dir / "speedup_hw_to_hw.csv") in printed
        assert str(out_dir / "speedup_hw_to_sw.csv") in printed

    def test_both_publisher_kinds_fill_four_series(self, workdir, capsys):
        # one hw-publisher and one sw-publisher comparison pivot into the
        # full set of four speedup series in a shared output directory
        grid = {
            "sizes": [12000, 120000],
            "hw_sub_counts": [1, 2],
            "sw_sub_count": 1,
            "reps": 2,
            "period_us": 300000,
        }
        out_dir = workdir / "series"
        for kind in ("hw", "sw"):
            doc = {
                "graph": "graph.json",
                "seed": 3,
                "workload": [],
                "grid": dict(grid, publisher_kind=kind),
            }
            scenario = workdir / f"{kind}_cells.json"
            scenario.write_text(json.dumps(doc), encoding="utf-8")
            comparison = workdir / f"{kind}_compare.csv"
            assert run_cli(
                "compare", "--scenario", str(scenario),
                "--policies", "smt,multi-hw-sub", "--out", str(comparison),
            ) == 0
            assert run_cli("report", "--in", str(comparison), "--out-dir", str(out_dir)) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "speedup_hw_to_hw.csv",
            "speedup_hw_to_sw.csv",
            "speedup_sw_to_hw.csv",
            "speedup_sw_to_sw.csv",
        ]

    def test_grid_without_sw_subscribers_pivots_only_the_hw_side(self, tmp_path, data_dir, capsys):
        # the packaged grid has no SW subscriber, so every speedup_sw cell is empty
        comparison = tmp_path / "compare.csv"
        assert run_cli(
            "compare", "--scenario", str(data_dir / "grid_hw_publisher.json"),
            "--policies", "smt,multi-hw-sub", "--out", str(comparison),
        ) == 0
        out_dir = tmp_path / "series"
        assert run_cli("report", "--in", str(comparison), "--out-dir", str(out_dir)) == 0
        assert [p.name for p in out_dir.iterdir()] == ["speedup_hw_to_hw.csv"]
        assert capsys.readouterr().out.splitlines() == [str(out_dir / "speedup_hw_to_hw.csv")]

    def test_non_grid_document_rejected(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        assert run_cli("report", "--in", str(path), "--out-dir", str(tmp_path / "d")) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["x/../../escaped", "../../etc", "HW", ""])
    def test_unknown_kind_rejected(self, tmp_path, capsys, kind):
        # the kind becomes part of an output file name, so a path in it would escape --out-dir
        path = tmp_path / "cmp.csv"
        header = "publisher_kind,size_bytes,hw_subs,speedup_hw,speedup_sw\n"
        path.write_text(header + f"{kind},100,2,1.5,\n", encoding="utf-8")
        out_dir = tmp_path / "a" / "out"
        (out_dir / "speedup_x").mkdir(parents=True)
        assert run_cli("report", "--in", str(path), "--out-dir", str(out_dir)) == 2
        _one_line_error(capsys, "publisher_kind must be 'hw' or 'sw'")
        assert sorted(p.name for p in tmp_path.rglob("*.csv")) == ["cmp.csv"]

    @pytest.mark.parametrize("column", ["size_bytes", "hw_subs"])
    @pytest.mark.parametrize("value", ["abc", "2.0", ""])
    def test_non_integer_cell_rejected(self, tmp_path, capsys, column, value):
        path = tmp_path / "cmp.csv"
        cells = {"publisher_kind": "hw", "size_bytes": "100", "hw_subs": "2", "speedup_hw": "1.5", "speedup_sw": ""}
        good = ",".join(cells.values())
        bad = ",".join(value if k == column else v for k, v in cells.items())
        path.write_text(",".join(cells) + f"\n{good}\n{bad}\n", encoding="utf-8")
        assert run_cli("report", "--in", str(path), "--out-dir", str(tmp_path / "out")) == 2
        _one_line_error(capsys, f"{str(path)!r} line 3: column {column!r} must be an integer, got {value!r}")
        assert not (tmp_path / "out").exists()

    def test_empty_document_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert run_cli("report", "--in", str(path), "--out-dir", str(tmp_path / "d")) == 2
