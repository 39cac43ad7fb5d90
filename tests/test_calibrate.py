import json
import math

import pytest

from topomap.calibrate import (
    CalibrationResult,
    SpeedupTarget,
    TargetError,
    calibrate,
    coordinate_descent,
    load_targets,
    parse_targets,
    result_to_json,
    simulated_speedup,
)
from topomap.mapping import MappingPolicy
from topomap.platform_model import PlatformModel
from topomap.scenario import star_scenario
from topomap.simulator import cell_times
from topomap import timing


class TestTargets:
    def test_parse_document(self):
        doc = {
            "threshold": 0.1,
            "targets": [
                {
                    "publisher_kind": "hw",
                    "size_bytes": 10000,
                    "hw_subs": 8,
                    "measure": "hw",
                    "speedup": 1.9,
                }
            ],
        }
        targets, threshold = parse_targets(json.dumps(doc))
        assert threshold == 0.1
        assert targets == [SpeedupTarget("hw", 10000, 8, 0, "hw", 1.9)]

    def test_threshold_defaults(self):
        text = json.dumps(
            {
                "targets": [
                    {
                        "publisher_kind": "sw",
                        "size_bytes": 100,
                        "hw_subs": 2,
                        "sw_subs": 1,
                        "measure": "sw",
                        "speedup": 1.1,
                    }
                ]
            }
        )
        _, threshold = parse_targets(text)
        assert threshold == 0.25

    def test_missing_key_named(self):
        text = json.dumps({"targets": [{"publisher_kind": "hw"}]})
        with pytest.raises(TargetError, match="size_bytes"):
            parse_targets(text)

    def test_empty_list_rejected(self):
        with pytest.raises(TargetError, match="empty"):
            parse_targets('{"targets": []}')

    def test_not_an_object(self):
        with pytest.raises(TargetError, match="targets"):
            parse_targets("[1]")

    def test_target_validation(self):
        with pytest.raises(TargetError, match="publisher_kind"):
            SpeedupTarget("fpga", 100, 1, 0, "hw", 1.0)
        with pytest.raises(TargetError, match="measure"):
            SpeedupTarget("hw", 100, 1, 0, "latency", 1.0)
        with pytest.raises(TargetError, match="positive"):
            SpeedupTarget("hw", 100, 1, 0, "hw", 0.0)
        with pytest.raises(TargetError, match="hardware subscriber"):
            SpeedupTarget("hw", 100, 0, 1, "hw", 1.5)
        with pytest.raises(TargetError, match="software subscriber"):
            SpeedupTarget("hw", 100, 2, 0, "sw", 1.5)

    def test_load_packaged_targets(self, data_dir):
        targets, threshold = load_targets(data_dir / "measured_speedups.json")
        assert threshold == 0.25
        assert len(targets) == 5
        assert all(t.speedup > 1 for t in targets)


class TestSimulatedSpeedup:
    def test_matches_cell_times_ratio(self):
        target = SpeedupTarget("hw", 120_000, 4, 0, "hw", 2.0)
        platform = PlatformModel()
        cell = star_scenario("hw", 4, 0, 120_000, reps=1, period_us=1.0, seed=0, jitter_pct=0.0)
        base_hw, _ = cell_times(cell, platform, MappingPolicy.ALWAYS_SMT)
        mapped_hw, _ = cell_times(cell, platform, MappingPolicy.ALWAYS_GW_IF_MULTI_HW_SUB)
        assert simulated_speedup(target, platform) == pytest.approx(base_hw / mapped_hw)
        # the simulated value does not depend on the asked-for speedup
        other = SpeedupTarget("hw", 120_000, 4, 0, "hw", 9.9)
        assert simulated_speedup(other, platform) == simulated_speedup(target, platform)

    def test_large_fanout_speedup_exceeds_one(self):
        target = SpeedupTarget("hw", 10_000_000, 8, 0, "hw", 1.0)
        assert simulated_speedup(target, PlatformModel()) > 1.0


class TestCoordinateDescent:
    def test_single_parameter_geometric_mean(self):
        # sum of squared log ratios to 2 and 8 is minimized at 4
        def objective(x):
            return math.log(x["v"] / 2.0) ** 2 + math.log(x["v"] / 8.0) ** 2

        best, value = coordinate_descent(objective, {"v": 1.0}, sweeps=12, floor=1.0001)
        assert best["v"] == pytest.approx(4.0, rel=1e-2)
        assert value == pytest.approx(objective({"v": 4.0}), rel=1e-3)

    def test_never_returns_worse_than_start(self):
        def objective(x):
            return (x["a"] - 3.0) ** 2 + (x["b"] - 0.5) ** 2

        start = {"a": 3.0, "b": 0.5}
        best, value = coordinate_descent(objective, start, sweeps=2)
        assert value <= objective(start)

    def test_deterministic(self):
        def objective(x):
            return abs(math.log(x["v"] / 5.0))

        a = coordinate_descent(objective, {"v": 1.0}, sweeps=4)
        b = coordinate_descent(objective, {"v": 1.0}, sweeps=4)
        assert a == b


class TestCalibrate:
    def test_fits_packaged_targets(self, data_dir):
        targets, threshold = load_targets(data_dir / "measured_speedups.json")
        result = calibrate(targets, threshold)
        assert result.ok, [r["rel_error"] for r in result.residuals]
        assert all(r["ok"] for r in result.residuals)
        assert all(abs(r["rel_error"]) <= threshold for r in result.residuals)
        assert result.platform.jitter_pct == PlatformModel().jitter_pct

    def test_impossible_target_reported_not_ok(self):
        # with one hw subscriber the mapped path is never slower than the
        # baseline, so simulated speedup stays >= 1 and a slowdown target
        # of 0.25 cannot be fit at any parameter setting
        target = SpeedupTarget("hw", 1000, 1, 0, "hw", 0.25)
        result = calibrate([target], threshold=0.01)
        assert not result.ok
        assert result.residuals[0]["ok"] is False
        assert result.residuals[0]["simulated_speedup"] >= 1.0

    def test_already_satisfied_target_leaves_parameters_alone(self):
        # ask for exactly what the default platform already produces: the
        # objective starts at zero, so no probe can improve on it
        descriptor = SpeedupTarget("hw", 120_000, 4, 0, "hw", 1.0)
        achieved = simulated_speedup(descriptor, PlatformModel())
        target = SpeedupTarget("hw", 120_000, 4, 0, "hw", achieved)
        result = calibrate([target], threshold=0.05)
        assert result.ok
        assert result.objective_value == 0.0
        assert result.platform == PlatformModel()
        assert result.residuals[0]["rel_error"] == 0.0

    def test_fits_both_fanout_endpoints_tightly(self):
        # the two corners of the eight-subscriber sweep, small and large
        targets = [
            SpeedupTarget("hw", 10_000, 8, 0, "hw", 1.94),
            SpeedupTarget("hw", 10_000_000, 8, 0, "hw", 7.95),
        ]
        result = calibrate(targets, threshold=0.20)
        assert result.ok, [r["rel_error"] for r in result.residuals]
        for res in result.residuals:
            assert abs(res["rel_error"]) <= 0.20

    def test_conflicting_duplicate_targets_split_the_difference(self):
        # same cell asked for two different speedups: least squares in log
        # space lands on their geometric mean
        cell = dict(publisher_kind="hw", size_bytes=120_000, hw_subs=2, sw_subs=0, measure="hw")
        lo, hi = 1.5, 2.16
        targets = [SpeedupTarget(speedup=lo, **cell), SpeedupTarget(speedup=hi, **cell)]
        result = calibrate(targets, threshold=1.0)
        fitted = [r["simulated_speedup"] for r in result.residuals]
        assert fitted[0] == fitted[1]
        assert fitted[0] == pytest.approx(math.sqrt(lo * hi), rel=0.05)

    def test_one_fit_runs_each_distinct_memif_schedule_once(self, data_dir, monkeypatch):
        # counts, not times: they repeat exactly, so they pin what the cache saves
        targets, threshold = load_targets(data_dir / "measured_speedups.json")
        schedules = []
        done_ns = timing._memif_done_ns

        def recording(announced_ns, lead_ns, size_bytes, bytes_per_s):
            offsets = tuple(t - announced_ns[0] for t in announced_ns)
            schedules.append((offsets, lead_ns, size_bytes, bytes_per_s))
            return done_ns(announced_ns, lead_ns, size_bytes, bytes_per_s)

        monkeypatch.setattr(timing, "_memif_done_ns", recording)
        timing._memif_schedule.cache_clear()
        calibrate(targets, threshold)
        info = timing._memif_schedule.cache_info()
        assert (len(schedules), len(set(schedules))) == (416, 82)
        assert info.misses == len(set(schedules))
        assert info.hits + info.misses == len(schedules)

    def test_result_json_shape(self):
        target = SpeedupTarget("hw", 120_000, 2, 0, "hw", 1.2)
        result = calibrate([target], threshold=0.5)
        assert isinstance(result, CalibrationResult)
        doc = json.loads(result_to_json(result))
        assert set(doc) == {"platform", "residuals", "objective_value", "threshold", "ok"}
        assert doc["threshold"] == 0.5
        assert doc["residuals"][0]["target_speedup"] == 1.2
        PlatformModel.from_json(json.dumps(doc["platform"]))
