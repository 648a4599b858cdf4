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

# The largest count a step or replication array can hold (see _check_int).
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, p) of the random graph ensemble.

    p = 0 is rejected: the expected update matrix degenerates to the
    identity, no information ever moves, and the variance coefficients
    become 0/0. A subnormal p is rejected too: products with it underflow
    to 0, and the oracle's Perron solve fails. Failing at construction
    beats returning meaningless moments downstream. n is stored as a
    Python int and p as a float, so a numpy n or p of any width gives
    the same moments, with no overflow at the width of n.
    """

    n: int
    p: float

    def __post_init__(self) -> None:
        _check_int("n", self.n, 2, _INT64_MAX)
        p = _check_real("p", self.p)
        if not sys.float_info.min <= p <= 1.0:
            raise ValueError(f"p must be in (0, 1] and not subnormal (< {sys.float_info.min}), got {p}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> float:
        """Probability that a given directed edge is absent."""
        return 1.0 - self.p


def _check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject anything but a Python or numpy integer in [minimum, maximum]; a bool is rejected too.

    A float or bool count would otherwise be compared, formatted and used
    as an array shape as if it were one, failing far from its source; a
    count past int64 would fill arrays of uint64 or Python objects.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")


def _check_real(name: str, value) -> float:
    """value as a Python float, +-inf past its range; a bool (numpy's is not Real) or a non-number is rejected."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):  # float spares the ~1 us ABC check
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not isinstance(value, (float, np.floating)) and abs(value) > sys.float_info.max:  # float() would overflow
        return np.inf if value > 0 else -np.inf
    return float(value)


def _check_x0(x0, n: int) -> np.ndarray:
    """x0 as a finite float vector of length n.

    The one input check for initial states. A NaN entry would otherwise
    pass a run as converged at step 0 (nan >= tol is False), and an inf
    entry turns every state into NaN after one step. |x_i| <= 1e75 keeps
    S finite, the sum of n squares that dynamics._dispersion,
    consensus_variance and run_ensemble's centered @ centered compute.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size == 0 or x.size != n:
        raise ValueError(f"x0 must be a length-{n} vector, got shape {x.shape}")
    if not np.abs(x).max() <= 1e75:  # NaN fails the comparison; the bad entries are listed only on failure
        raise ValueError(f"x0 entries must be finite with |x| <= 1e75, got {x[~(np.abs(x) <= 1e75)].tolist()}")
    return x


@dataclass(frozen=True)
class GraphSeed:
    """Root seed plus a stream index: independent, reproducible draw sequences.

    The same (seed, stream) always produces the same draws, whatever
    other streams exist or were drawn from before.
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
