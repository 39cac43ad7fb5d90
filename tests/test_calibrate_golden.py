"""Golden digests of calibration, byte for byte, and what one fit simulates.

Each case pins the sha256 of ``result_to_json(calibrate(...))`` for the
packaged targets or for the packaged targets with one held out, as the
benchmark's leave-one-out refits run them. The digests were taken while
every probe still simulated its targets; any change to the probe
sequence, to a probe's speedups or to the residuals shows up here as a
mismatch. A probe now prices its targets with the latency model, so its
speedups must equal the simulated ones bit for bit.
"""

import hashlib

import pytest

import topomap.calibrate
from topomap.calibrate import calibrate, load_targets, result_to_json


@pytest.fixture(scope="module")
def packaged(data_dir):
    return load_targets(data_dir / "measured_speedups.json")


@pytest.mark.parametrize(
    "held_out, digest",
    [
        (None, "926aa4b3e6b2779f1549e6b01fd324e7ca21de04b07a6bae94fcf4df5e579386"),
        (0, "6f44c5be55596fe383485d17c6d4e8f2ff403c5a1f840cbc63e7cb3a08a15cfe"),
        (1, "23f790a18d0a4bfe1406b6d4d18394bc11f6b6e85c08a4af3609a40ad575c7cd"),
        (2, "0531b482fc929e7e31aecd7154d3c8bb0c94ffd663acc1e9d86622c1cf1c3ef1"),
        (3, "5797c64fa1e6fd739d9fbce37ca40821653220860999e86eff9c41265452465a"),
        (4, "9ea6081cd93bc7d71a638cf85d55705f2c4ca92fedcd9168dd8051071f3599c8"),
    ],
)
def test_calibration_bytes(packaged, held_out, digest):
    targets, threshold = packaged
    kept = [t for i, t in enumerate(targets) if i != held_out]
    text = result_to_json(calibrate(kept, threshold))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def probed(packaged):
    """Every platform the six packaged fits price, in first-probe order."""
    targets, threshold = packaged
    seen = {}
    predicted_speedup = topomap.calibrate.predicted_speedup

    def recording(target, platform):
        seen.setdefault(platform)
        return predicted_speedup(target, platform)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topomap.calibrate, "predicted_speedup", recording)
        for held_out in (None, *range(len(targets))):
            calibrate([t for i, t in enumerate(targets) if i != held_out], threshold)
    return list(seen)


def test_one_fit_simulates_only_the_fitted_platform(packaged, monkeypatch):
    targets, threshold = packaged
    simulate = topomap.calibrate.simulate
    runs = []

    def recording(scenario, platform, *args, **kwargs):
        runs.append((scenario, platform))
        return simulate(scenario, platform, *args, **kwargs)

    monkeypatch.setattr(topomap.calibrate, "simulate", recording)
    result = calibrate(targets, threshold)
    # the residuals: both prebuilt scenarios of each target, mappings resolved
    assert len(runs) == 2 * len(targets)
    assert all(platform == result.platform for _, platform in runs)
    assert len({id(scenario) for scenario, _ in runs}) == 2 * len(targets)
    assert all(scenario.comm_mapping is not None for scenario, _ in runs)


def test_predicted_speedups_equal_simulated_on_every_probed_platform(packaged, probed):
    targets, _ = packaged
    assert len(probed) == 231
    for platform in probed:
        for target in targets:
            predicted = topomap.calibrate.predicted_speedup(target, platform)
            simulated = topomap.calibrate.simulated_speedup(target, platform)
            assert predicted.hex() == simulated.hex(), (target, platform)


def test_a_repeated_fit_prices_every_probe_again(packaged, monkeypatch):
    # only the per-target cells outlive a fit: nothing keyed on a platform does
    targets, threshold = packaged
    predict = topomap.calibrate.predict_latency_ns
    platforms = []

    def recording(endpoints, publisher, impl, size_bytes, platform):
        platforms.append(platform)
        return predict(endpoints, publisher, impl, size_bytes, platform)

    monkeypatch.setattr(topomap.calibrate, "predict_latency_ns", recording)
    counts = []
    for _ in range(2):
        platforms.clear()
        calibrate(targets, threshold)
        counts.append((len(platforms), len(set(platforms))))
    # two predictions per target on each of the 52 distinct platforms the search probes
    assert counts == [(2 * len(targets) * 52, 52)] * 2
