"""Print the host seconds a fresh interpreter needs before its first operation.

That is importing topomap and loading the packaged platform, targets and
scenario documents. The clock starts at this file's first statement. The
reference loop's median time over a few runs follows, measured right
after, to scale the first.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import topomap  # noqa: E402
import topomap.calibrate  # noqa: E402
import topomap.cli  # noqa: E402

DATA = Path(topomap.__file__).parent / "data"
SCENARIOS = ("grid_hw_publisher.json", "grid_hw_publisher_sw_sub.json", "grid_sw_publisher.json", "chain_scenario.json")

topomap.PlatformModel.load(DATA / "default_platform.json")
topomap.calibrate.load_targets(DATA / "measured_speedups.json")
for name in SCENARIOS:
    topomap.load_scenario(DATA / name)
SETUP_S = time.perf_counter() - T0

import statistics  # noqa: E402

from reference import reference_s  # noqa: E402

print(repr(SETUP_S), repr(statistics.median(reference_s() for _ in range(5))))
