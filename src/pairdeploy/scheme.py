"""Offline pairing step of the random pairwise key predistribution scheme.

Each of n nodes is paired, before deployment, with k distinct other nodes
chosen uniformly at random; selections of different nodes are mutually
independent.  Every pairing (i -> j) installs one pairwise key, so node i
finally holds one key per node it selected plus one per node that selected
it: ring size = k + reverse degree of i, and ring sizes over a table always
sum to 2*n*k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import sampling

__all__ = [
    "SchemeParams",
    "PairingTable",
    "generate_pairing",
    "gamma_n_exact",
    "phase_size",
]

@dataclass(frozen=True)
class SchemeParams:
    """Scheme size: n nodes, k selections per node (1 <= k <= n-1)."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n={self.n}")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={self.k} with n={self.n}")


@dataclass(frozen=True)
class PairingTable:
    """Selections of every node: row i holds node i's k partners.

    partners is an (n, k) int64 array, 0-based ids, each row sorted
    ascending and never containing the row's own index.
    """

    params: SchemeParams
    partners: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.partners, dtype=np.int64)
        n, k = self.params.n, self.params.k
        if p.shape != (n, k):
            raise ValueError(f"partner array must be shape {(n, k)}, got {p.shape}")
        if k > 1 and not (p[:, 1:] > p[:, :-1]).all():
            raise ValueError("partner rows must be strictly ascending")
        if p.min() < 0 or p.max() >= n:
            raise ValueError("partner ids out of range")
        if (p == np.arange(n, dtype=np.int64)[:, None]).any():
            raise ValueError("a node may not select itself")
        p.flags.writeable = False
        object.__setattr__(self, "partners", p)


def generate_pairing(params: SchemeParams, seed: int, trial: int = 0) -> PairingTable:
    """Draw a pairing table; uniform per node, independent across nodes.

    Deterministic in (params, seed, trial) on every platform; see the
    sampling module for the stream layout.
    """
    block = sampling.sample_pairing_block(seed, range(trial, trial + 1), params.n, params.k)
    return PairingTable(params, block[0])


def gamma_n_exact(n: int, gamma: float) -> Fraction:
    """gamma * n over the decimal value of gamma (the Fraction of its
    shortest repr), so e.g. gamma=0.3, n=10 gives exactly 3 where
    0.3*10 = 2.999... in binary floating point."""
    return Fraction(str(gamma)) * n


def phase_size(n: int, gamma: float) -> int:
    """Number of nodes deployed at fraction gamma: floor(gamma * n).

    gamma must lie in (0, 1] and the floor must be positive.  The floor is
    taken of gamma_n_exact, so gamma=0.3, n=10 gives 3.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    m = int(gamma_n_exact(n, gamma))
    if m < 1:
        raise ValueError(f"floor(gamma*n) must be >= 1, got 0 for gamma={gamma}, n={n}")
    return m
