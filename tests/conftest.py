import pytest

import sumlab as sl


@pytest.fixture(scope="session")
def connected_by_n():
    """One representative per isomorphism class of connected graphs, keyed
    by vertex count, shared across the whole run."""
    return {n: list(sl.enumerate_connected(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def connected_7():
    """The 853 connected seven-vertex classes, enumerated once per run.  Kept
    out of ``connected_by_n``, whose users iterate over all of its values."""
    return list(sl.enumerate_connected(7))
