"""Directed Erdős–Rényi graphs: model parameters and seeding.

The model G(n, p): n labeled nodes, and every ordered pair (i, j) with
i != j carries an edge independently with probability p. Out-degrees are
therefore Binomial(n - 1, p). Self-loops are never part of a realization
(the averaging dynamics adds them implicitly when building weights).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphSeed",
    "ModelParams",
]


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, p) of the random graph ensemble.

    p = 0 is rejected: the expected update matrix degenerates to the
    identity, no information ever moves, and the variance coefficients
    become 0/0. A subnormal p is rejected too: products with it underflow
    to 0, and the oracle's Perron solve fails. Failing at construction
    beats returning meaningless moments downstream.
    """

    n: int
    p: float

    def __post_init__(self) -> None:
        _check_int("n", self.n, 2)
        p = _check_real("p", self.p)
        if not sys.float_info.min <= p <= 1.0:
            raise ValueError(f"p must be in (0, 1] and not subnormal (< {sys.float_info.min}), got {p}")
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> float:
        """Probability that a given directed edge is absent."""
        return 1.0 - self.p


def _check_int(name: str, value, minimum: int) -> None:
    """Reject anything but a Python or numpy integer >= minimum; a bool is rejected too.

    A float or bool count would otherwise be compared, formatted and used
    as an array shape as if it were one, failing far from its source.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_real(name: str, value) -> float:
    """value as a Python float, +-inf past its range; a bool (numpy's is not Real) or a non-number is rejected."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):  # float spares the ~1 us ABC check
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not isinstance(value, (float, np.floating)) and abs(value) > sys.float_info.max:  # float() would overflow
        return np.inf if value > 0 else -np.inf
    return float(value)


def _check_x0(x0, n: int | None = None) -> np.ndarray:
    """x0 as a finite float vector of length n (any non-zero length if n is None).

    The one input check for initial states. A NaN entry would otherwise
    pass a run as converged at step 0 (nan >= tol is False), and an inf
    entry turns every state into NaN after one step. |x_i| <= 1e75 keeps
    fourth powers finite, as the jackknife standard error of a variance needs.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size == 0 or (n is not None and x.size != n):
        wanted = "a non-empty vector" if n is None else f"a length-{n} vector"
        raise ValueError(f"x0 must be {wanted}, got shape {x.shape}")
    bad = ~(np.abs(x) <= 1e75)
    if bad.any():
        raise ValueError(f"x0 entries must be finite with |x| <= 1e75, got {x[bad].tolist()}")
    return x


@dataclass(frozen=True)
class GraphSeed:
    """Root seed plus a stream index for reproducible parallel runs.

    The same (seed, stream) always produces the same draw sequence, no
    matter how many sibling streams exist or which worker consumes them.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        _check_int("seed", self.seed, 0)
        _check_int("stream", self.stream, 0)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        )

    def replication(self, index: int) -> np.random.Generator:
        """Independent generator for replication `index` under this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, index))
        )

    def block(self, index: int) -> np.random.Generator:
        """Generator for block `index` of an ensemble under this stream.

        Its spawn key (stream, index, 0) has three parts, so it is the key
        of no replication (stream, r) and of no stream (stream,).
        """
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, index, 0))
        )
