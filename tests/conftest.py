import atexit
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cavcross import IntersectionLayout, VehicleParams
from cavcross import scenario as scenario_module

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SCENARIO = REPO_ROOT / "scenarios" / "reference.yaml"

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.  Hypothesis still caches the
# constants it mines from the sources under its home directory, which
# defaults to `.hypothesis/` in the working directory; point it at a
# temporary directory so the suite writes nothing into the checkout.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="cavcross-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
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


@pytest.fixture(params=["libyaml", "pure"])
def yaml_loader(request, monkeypatch):
    """Scenario files read through libyaml's parser, then through PyYAML's own."""
    if request.param == "libyaml":
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML was built without libyaml")
        loader = yaml.CSafeLoader
    else:
        loader = yaml.SafeLoader
    monkeypatch.setattr(scenario_module, "_LOADER", loader)
    return loader
