from pathlib import Path

import pytest
from hypothesis import settings

from cavcross import IntersectionLayout, VehicleParams

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SCENARIO = REPO_ROOT / "scenarios" / "reference.yaml"

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and writes nothing.
settings.register_profile("cavcross", derandomize=True, deadline=None, database=None)
settings.load_profile("cavcross")


@pytest.fixture
def layout() -> IntersectionLayout:
    return IntersectionLayout()


@pytest.fixture
def params() -> VehicleParams:
    return VehicleParams()


@pytest.fixture
def reference_path() -> Path:
    return REFERENCE_SCENARIO
