"""Reference answers that share no code with the library.

The test modules check the library against these: graph traversals for
connectivity and isolation, every pairing table of a small scheme for
exact probabilities, and one np.bincount per table for ring sizes.  The
module imports numpy and the standard library alone, never pairdeploy
or pytest (tests/test_api.py checks that), so a fault in the library
cannot reach the answer it is checked against.

A table is a partner array: row i holds node i's k partners, 0-based
ids.  The view of m nodes keeps the first m nodes and the selection
pairs (i, partners[i, c]) with both ends among them.  A mutual pair is
listed twice, which changes none of the answers.
"""

from itertools import combinations, product

import numpy as np


class UnionFind:
    """Disjoint sets over 0..n-1 with union by size and path halving."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
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


def deployed_edges(partners, m):
    """Selection pairs (i, partners[i, c]) with both ends among the first m
    nodes, as two lists; a mutual pair appears once from each end."""
    rows = partners[:m]
    keep = rows < m
    return np.nonzero(keep)[0].tolist(), rows[keep].tolist()


def uf_connected(partners, m):
    uf = UnionFind(m)
    for a, b in zip(*deployed_edges(partners, m)):
        uf.union(a, b)
    return uf.components == 1


def bfs_connected(partners, m):
    adj = [[] for _ in range(m)]
    for a, b in zip(*deployed_edges(partners, m)):
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


def mask_isolated(partners, m):
    """How many of the first m nodes are in no deployed selection pair."""
    u, v = deployed_edges(partners, m)
    touched = np.zeros(m, dtype=bool)
    touched[u] = True
    touched[v] = True
    return int(m - touched.sum())


def all_tables(n, k):
    """Every pairing table of n nodes and k partners, as one int64 block of
    C(n-1, k)**n tables: each node picks one of the C(n-1, k) sorted sets of
    k other nodes, independently, so the tables are equally likely and an
    exact probability is the share of them that has the event."""
    choices = [[c for c in combinations(range(n), k) if i not in c] for i in range(n)]
    return np.array(list(product(*choices)), dtype=np.int64).reshape(-1, n, k)


def ring_sizes(block):
    """k plus each node's reverse degree, one np.bincount per table."""
    _, n, k = block.shape
    return k + np.array([np.bincount(table.ravel(), minlength=n) for table in block])
