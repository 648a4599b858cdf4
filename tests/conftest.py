import itertools
import os
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def src_env():
    """Environment for a subprocess that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _all_graphs(n):
    """Every directed graph on n nodes, self-loops excluded, with its edge count."""
    slots = tuple(zip(*((i, j) for i in range(n) for j in range(n) if i != j)))
    for bits in itertools.product((0, 1), repeat=n * (n - 1)):
        adj = np.zeros((n, n))
        adj[slots] = bits
        yield adj, sum(bits)


@pytest.fixture(scope="session")
def all_graphs():
    """Generator over the 2^(n(n-1)) realizations of G(n, p); feasible for n <= 4."""
    return _all_graphs


def _entry_class(m, i, r, j, s):
    """The WeightSecondMoments class of E[w_ij w_rs], read off the four indices."""
    if i == r:
        if j == s == i:
            return m.self_sq
        if (j == i) != (s == i) or j == s:
            return m.self_neighbor_same_row
        return m.neighbor_pair_same_row
    if j == i and s == r:
        return m.self_self
    if (j == i) != (s == r):
        return m.self_neighbor_cross_row
    return m.neighbor_pair_cross_row


@pytest.fixture(scope="session")
def entry_class():
    """The six-class table of E[W (x) W]: entry_class(m, i, r, j, s) -> class value."""
    return _entry_class
