import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from erconsensus.dynamics import _dense_piece, _dense_workspace

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


def _dense_update(adj, x):
    """x -> W x for the 0/1 adjacency stack adj (..., n, n) and states x (..., n), by the package's dense piece.

    adj goes in as the piece's slot bytes at p = 1/2, where a byte below
    128 is an edge: byte 0 where adj is nonzero and 255 elsewhere, each
    replication's n*n bytes padded with 255 to whole words. 256 p is an
    integer, so the remainder field is empty and no field generator is
    needed. The diagonal goes in as drawn.
    """
    adj, x = np.asarray(adj), np.asarray(x, dtype=float)
    n = adj.shape[-1]
    slot_bytes = np.where(adj.reshape(-1, n * n) != 0, 0, 255).astype(np.uint8)
    words = np.pad(slot_bytes, ((0, 0), (0, -n * n % 8)), constant_values=255).reshape(-1).view("<u8")

    def raw(size):
        assert size == words.size  # the piece reads every word, each replication's own
        return words

    states = x.reshape(-1, n)
    out = np.empty_like(states)
    pending = _dense_piece(states, out, 0.5, np.empty(0, dtype=np.int64), raw, None, _dense_workspace(len(states), n))
    assert pending.size == 0
    return out.reshape(x.shape)


@pytest.fixture(scope="session")
def dense_update():
    """The dense body's update for a given adjacency: dense_update(adj, x) -> W x."""
    return _dense_update
