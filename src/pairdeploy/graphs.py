"""Key graphs induced by a pairing table, and the two deployment questions.

Nodes i and j are adjacent iff either selected the other, so they share at
least one pairwise key.  build_graph lists the edges of a table and
write_edge_list exports them.

The deployment questions are asked of the view at fraction gamma: the
first m = floor(gamma*n) nodes (the nodes deployed so far) and the edges
with both endpoints deployed.  One kernel answers both, for a whole
(trials, n, k) block of partner arrays at once in numpy: connected_at hooks
each selection column into a flat label array of all the block's tables
(min-label hooking plus pointer jumping), retires a table as soon as it is
connected or has no edges left, and counts the isolated nodes of a retired
table as the singleton components of its final labels.  The tests check it
against independent union-find, breadth-first search and edge-mask routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .scheme import PairingTable

__all__ = [
    "KeyGraph",
    "build_graph",
    "write_edge_list",
    "connected_at",
]


@dataclass(frozen=True)
class KeyGraph:
    """Undirected key graph: n nodes, deduplicated edge arrays (u < v)."""

    n: int
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edge_u)

    def edges(self) -> set[tuple[int, int]]:
        """Edge set as 1-based (i, j) tuples with i < j."""
        return {(int(u) + 1, int(v) + 1) for u, v in zip(self.edge_u, self.edge_v)}

    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edge_u, minlength=self.n)
        deg += np.bincount(self.edge_v, minlength=self.n)
        return deg


def build_graph(table: PairingTable) -> KeyGraph:
    """Build the key graph of a pairing table.

    Mutual selections collapse to a single edge; every node has degree at
    least k, so the full graph never has isolated nodes.
    """
    n, k = table.n, table.k
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = table.partners.ravel()
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    packed = np.unique(lo * n + hi)
    u = packed // n
    v = packed % n
    u.flags.writeable = False
    v.flags.writeable = False
    return KeyGraph(n, u, v)


def write_edge_list(graph: KeyGraph, fp: IO[str]) -> None:
    """Write one "i j" line per edge, 1-based, i < j, sorted by (i, j)."""
    for u, v in zip(graph.edge_u, graph.edge_v):
        fp.write(f"{int(u) + 1} {int(v) + 1}\n")


# -- block kernel -------------------------------------------------------------
#
# The Monte Carlo harness evaluates thousands of tables; connected_at takes a
# whole (trials, n, k) block of partner arrays (rows sorted ascending, as
# every table in this package is) and answers for every table at once,
# without KeyGraph construction.  It lays the views of all the block's
# tables out table by table in one flat label array: node i of table t is
# label t*m + i.

def connected_at(block: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Both deployment questions for the m-node view of each table:
    (connected, isolated), a bool array and an int64 array of the deployed
    nodes with no deployed neighbour.

    A one-node view counts as connected, with its one node isolated.
    Selection columns are added in order; column c holds each node's
    (c+1)-th smallest partner, so once a table has no deployed partner in a
    column it gains no edge later.  Each column is merged by rounds of
    min-label hooking and pointer jumping until no edge joins two roots,
    which leaves every label pointing straight at its root.  A table leaves
    the open set as soon as it has one root (connected, so nothing is
    isolated) or no edges left, or when the columns run out; its labels are
    then final and its isolated nodes are its singleton components.
    """
    trials = block.shape[0]
    if m == 1:
        return np.ones(trials, dtype=bool), np.ones(trials, dtype=np.int64)
    connected = np.zeros(trials, dtype=bool)
    isolated = np.zeros(trials, dtype=np.int64)
    open_ = np.arange(trials)
    parent = np.arange(trials * m)
    for c in range(block.shape[2]):
        col = block[open_, :m, c]
        live = col < m
        alive = live.any(axis=1)
        if not alive.all():
            done, labels = _keep_open(~alive, open_, parent, m)
            isolated[done] = _singletons(labels, m)
            open_, parent = _keep_open(alive, open_, parent, m)
            col, live = col[alive], live[alive]
            if not len(open_):
                break
        base = np.arange(0, len(parent), m)
        u = np.flatnonzero(live)
        v = (col + base[:, None]).ravel()[u]
        while len(u):
            ru, rv = parent[u], parent[v]
            split = ru != rv
            if not split.any():
                break
            u, v, ru, rv = u[split], v[split], ru[split], rv[split]
            hooked = np.maximum(ru, rv)
            np.minimum.at(parent, hooked, np.minimum(ru, rv))
            # jump the hooked roots to final roots, then every node to its root
            top = parent[hooked]
            while True:
                up = parent[top]
                if np.array_equal(up, top):
                    break
                parent[hooked] = top = up
            parent = parent[parent]
        # min-label hooking leaves each component rooted at its smallest label
        joined = parent.reshape(-1, m).max(axis=1) == base
        if joined.any():
            connected[open_[joined]] = True
            open_, parent = _keep_open(~joined, open_, parent, m)
            if not len(open_):
                break
    isolated[open_] = _singletons(parent, m)
    return connected, isolated


def _keep_open(keep, open_, parent, m):
    """Keep the open tables flagged in `keep`, relabelled to stay contiguous."""
    rows = np.flatnonzero(keep)
    parent = parent.reshape(-1, m)[rows]
    parent += ((np.arange(len(rows)) - rows) * m)[:, None]
    return open_[rows], parent.ravel()


def _singletons(parent, m):
    """Singleton components per table of a contiguous label array in which
    every label points straight at its root: a root no other label points at."""
    sizes = np.bincount(parent, minlength=len(parent))
    return (sizes == 1).reshape(-1, m).sum(axis=1)
