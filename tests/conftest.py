import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# Property suites run 200 deterministic cases each; derandomize pins the
# generator so a failure reproduces without an external seed.
settings.register_profile(
    "suite",
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def child_env() -> dict[str, str]:
    """The environment for a child Python that imports trendsax: this one with ``src`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    return FIXTURES / "mini"


@pytest.fixture(scope="session")
def suite_dir() -> Path:
    return FIXTURES / "suite"
