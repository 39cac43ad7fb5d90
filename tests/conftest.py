import json
import signal
from importlib.resources import files
from pathlib import Path

import pytest

# far above the slowest test, far below a CI job's own time limit
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def fail_a_hung_test():
    """Fail a test still running after ``TEST_TIMEOUT_S``, with a traceback that names it.

    An event loop that stops advancing would otherwise hang the whole run.
    Needs ``SIGALRM``; where the platform has none, tests run unguarded.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        raise TimeoutError(f"test still running after {TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    """Directory of packaged fixture documents (real files in this layout)."""
    return Path(str(files("topomap.data")))


@pytest.fixture(scope="session")
def reference_doc(data_dir) -> str:
    return (data_dir / "reference_graph.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def reference_json(reference_doc) -> dict:
    return json.loads(reference_doc)
