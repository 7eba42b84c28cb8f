import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from weightlab import weights

# The suite's hypothesis tests are the two contract properties, the JSON writer's and
# the one-pass parser's (tests/test_cli.py), the moment pair's (tests/test_weights.py),
# the ranked pair walk's on the four-constant list and on any subset of it, the windowed walk's, the scan blocks'
# mirrored pairs below the diagonal, and the maximal scan's block passes (tests/test_constants.py),
# the one-build attainment report's and the value at the tangent root (tests/test_extremals.py):
# the CLI's takes 50 examples per subcommand in a plain run, the library's 3 per exported
# name (tests/test_api_contract.py), the others 50 each, and all 2,000 with
# --hypothesis-profile=contract.
# A plain run draws the same examples every time and keeps no example database,
# so it is repeatable; the contract profile, registered first so that it does
# not inherit that, stays random to keep searching.
settings.register_profile("contract", max_examples=2000, deadline=None)
settings.register_profile("default", max_examples=50, derandomize=True, database=None)


@pytest.fixture(scope="session")
def corpus():
    return weights.reference_corpus()


@pytest.fixture()
def linear():
    """w(t) = t."""
    return weights.power_weight(1.0, 1.0)


@pytest.fixture()
def sqrt_weight():
    """w(t) = sqrt(t)."""
    return weights.power_weight(1.0, 0.5)
