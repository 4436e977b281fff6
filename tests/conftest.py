import pytest

from ddcrit.graphs import is_connected
from ddcrit.harness import default_corpus
from oracles import graphs_upto


@pytest.fixture(scope="session")
def graphs_small():
    """Every isomorphism class on 1..7 vertices, grouped by order."""
    return graphs_upto(7)


@pytest.fixture(scope="session")
def graphs_by_n():
    """Every isomorphism class on 1..8 vertices, grouped by order."""
    return graphs_upto(8)


@pytest.fixture(scope="session")
def connected_small(graphs_small):
    return [g for n in range(1, 8) for g in graphs_small[n] if is_connected(g)]


@pytest.fixture(scope="session")
def connected_upto_8(graphs_by_n):
    return [g for n in range(1, 9) for g in graphs_by_n[n] if is_connected(g)]


@pytest.fixture(scope="session")
def theorem1_corpus():
    """Connected claw-free graphs of odd order <= 9 with minimum degree >= 4."""
    return [facts.g for facts in default_corpus("theorem1", 9)]
