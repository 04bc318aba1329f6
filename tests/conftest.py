import pytest

from walkrange.asymptotics import tail_rate_fit
from walkrange.genfun import Engine


@pytest.fixture(scope="session")
def float_engine_4000():
    """Shared float engine at truncation 4000 (n up to 2000)."""
    return Engine(4000, backend="float")


@pytest.fixture(scope="session")
def exact_engine_78():
    """Shared exact engine for length-78 work."""
    return Engine(78, backend="exact")


@pytest.fixture(scope="session")
def tail_fits_2000():
    """The fitted tail models of N_{2k} at n = 2000, k = 2..5 (seconds each)."""
    return {k: tail_rate_fit(k, 2000) for k in range(2, 6)}
