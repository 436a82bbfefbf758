"""Key graphs induced by a pairing table, and their deployment-phase views.

Nodes i and j are adjacent iff either selected the other, so they share at
least one pairwise key.  A phase view restricts the graph to the first
floor(gamma*n) nodes (the nodes deployed so far) and keeps only edges with
both endpoints deployed; it is a view, never a copy.

Connectivity of one view is decided by union-find with path halving; a
breadth-first search route is kept alongside as an independent check.

The Monte Carlo harness uses two block kernels instead, which answer for a
whole (trials, n, k) block of partner arrays at once in numpy:
connected_at hooks each selection column into a flat label array of all
the block's tables (min-label hooking plus pointer jumping) and retires a
table as soon as it is connected or has no edges left; isolated_count_at
marks every node touched by a deployed edge.  Both agree exactly with the
per-view routes above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .scheme import PairingTable, phase_size

__all__ = [
    "KeyGraph",
    "PhaseView",
    "UnionFind",
    "build_graph",
    "restrict",
    "is_connected",
    "count_isolated",
    "is_connected_bfs",
    "write_edge_list",
    "connected_at",
    "isolated_count_at",
]


class UnionFind:
    """Disjoint sets over 0..n-1 with union by size and path halving."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


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


@dataclass(frozen=True)
class PhaseView:
    """The key graph restricted to the first m = floor(gamma*n) nodes."""

    parent: KeyGraph
    gamma: float
    m: int

    def masked_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges with both endpoints deployed (0-based arrays)."""
        keep = (self.parent.edge_u < self.m) & (self.parent.edge_v < self.m)
        return self.parent.edge_u[keep], self.parent.edge_v[keep]


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


def restrict(graph: KeyGraph, gamma: float) -> PhaseView:
    """View of the graph at deployment fraction gamma in (0, 1]."""
    return PhaseView(graph, gamma, phase_size(graph.n, gamma))


def is_connected(view: PhaseView) -> bool:
    """True iff the deployed subgraph is connected (m = 1 counts as connected)."""
    if view.m == 1:
        return True
    u, v = view.masked_edges()
    return _edges_connected(view.m, u, v)


def _edges_connected(m: int, u: np.ndarray, v: np.ndarray) -> bool:
    uf = UnionFind(m)
    for a, b in zip(u.tolist(), v.tolist()):
        if uf.union(a, b) and uf.components == 1:
            return True
    return uf.components == 1


def count_isolated(view: PhaseView) -> int:
    """Deployed nodes with no deployed neighbor; always 0 at gamma = 1."""
    u, v = view.masked_edges()
    touched = np.zeros(view.m, dtype=bool)
    touched[u] = True
    touched[v] = True
    return int(view.m - touched.sum())


def is_connected_bfs(view: PhaseView) -> bool:
    """Breadth-first search route to the same answer as is_connected."""
    m = view.m
    if m == 1:
        return True
    u, v = view.masked_edges()
    adj: list[list[int]] = [[] for _ in range(m)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * m
    seen[0] = True
    frontier = [0]
    reached = 1
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    reached += 1
                    nxt.append(y)
        frontier = nxt
    return reached == m


def write_edge_list(graph: KeyGraph, fp: IO[str]) -> None:
    """Write one "i j" line per edge, 1-based, i < j, sorted by (i, j)."""
    for u, v in zip(graph.edge_u, graph.edge_v):
        fp.write(f"{int(u) + 1} {int(v) + 1}\n")


# -- block kernels ------------------------------------------------------------
#
# The Monte Carlo harness evaluates thousands of tables; these take a whole
# (trials, n, k) block of partner arrays (rows sorted ascending, as every
# table in this package is) and answer for every table at once, without
# KeyGraph construction.  They must agree exactly with the object API above
# (tested).  Each lays the views of all the block's tables out table by
# table in one flat array; in connected_at node i of table t is label t*m + i.

def connected_at(block: np.ndarray, m: int) -> np.ndarray:
    """is_connected of the m-node view of every table, as a bool array.

    Selection columns are added in order; column c holds each node's
    (c+1)-th smallest partner, so once a table has no deployed partner in a
    column it gains no edge later.  Each column is merged by rounds of
    min-label hooking and pointer jumping until no edge joins two roots.
    A table leaves the open set as soon as it has one root (connected) or
    no edges left (disconnected), so connected views exit early the way
    sequential union-find does.
    """
    trials = block.shape[0]
    if m == 1:
        return np.ones(trials, dtype=bool)
    connected = np.zeros(trials, dtype=bool)
    open_ = np.arange(trials)
    parent = np.arange(trials * m)
    for c in range(block.shape[2]):
        col = block[open_, :m, c]
        live = col < m
        alive = live.any(axis=1)
        if not alive.all():
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
    return connected


def _keep_open(keep, open_, parent, m):
    """Keep the open tables flagged in `keep`, relabelled to stay contiguous."""
    rows = np.flatnonzero(keep)
    parent = parent.reshape(-1, m)[rows]
    parent += ((np.arange(len(rows)) - rows) * m)[:, None]
    return open_[rows], parent.ravel()


def isolated_count_at(block: np.ndarray, m: int) -> np.ndarray:
    """count_isolated of the m-node view of every table, as an int64 array.

    A node is touched by its own deployed selections (its smallest partner
    is below m) and by every deployed node that selected it.  Each table
    gets m+1 flags; undeployed partners all land on the last, unused one.
    """
    trials = block.shape[0]
    sub = block[:, :m]
    touched = np.zeros((trials, m + 1), dtype=bool)
    touched[:, :m] = sub[:, :, 0] < m
    flat = touched.ravel()
    base = np.arange(0, trials * (m + 1), m + 1)[:, None]
    for c in range(block.shape[2]):
        col = sub[:, :, c]
        if col.min() >= m:
            break  # rows are sorted: later columns are larger still
        target = np.minimum(col, m)
        target += base
        flat[target] = True
    return m - touched[:, :m].sum(axis=1, dtype=np.int64)
