import pytest

from cliquegames import games


@pytest.fixture(autouse=True)
def fresh_networks():
    """Empty the separator-network memo around every test.

    Some tests build networks under a patched construction (a shifted
    ``threshold_network``, mutated ``_vertex_monomials``); none of those may
    serve a later test, and no test may depend on what an earlier one built.
    """
    games._network.cache_clear()
    yield
    games._network.cache_clear()
