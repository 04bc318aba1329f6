import pytest

from walkrange.genfun import Engine


@pytest.fixture(scope="session")
def float_engine_4000():
    """Shared float engine at truncation 4000 (n up to 2000)."""
    return Engine(4000, backend="float")


@pytest.fixture(scope="session")
def exact_engine_78():
    """Shared exact engine for length-78 work."""
    return Engine(78, backend="exact")
