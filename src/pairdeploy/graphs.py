"""The key graph of a pairing table, and the two deployment questions.

Nodes i and j are adjacent iff either selected the other, so they share at
least one pairwise key: the edges are the selection pairs (i, partners[i, c]).

The deployment questions are asked of the view at fraction gamma: the
first m = floor(gamma*n) nodes (the nodes deployed so far) and the edges
with both endpoints deployed.  One kernel answers both, for a whole
(trials, n, k) block of partner arrays and all of a schedule's views at
once in numpy: connected_at, whose docstring walks through its stages.
The tests check it against independent union-find, breadth-first search
and edge-mask routes over the selection pairs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["connected_at"]


# -- block kernel -------------------------------------------------------------
#
# The Monte Carlo harness evaluates thousands of tables; connected_at takes a
# whole (trials, n, k) block of partner arrays and answers for every table
# at once, straight from the selection columns, with no edge list built.
# Its rows must be sorted ascending, as the deployment runs draw them: a
# table is retired as stuck at its first column with no deployed partner.
# (The census draws unsorted blocks, and never passes them here.)  Each
# stage lays the m-node views of the block's open tables out table by table
# in one flat label array: node i of table t is label t*m + i.  Each column
# is read as a copy of the open tables' rows, whatever the block's layout,
# which the column's hooking rounds read faster than a strided view.

def connected_at(block: np.ndarray, ms: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Both deployment questions for the nested views of each table, the
    first m nodes for each m in ms: (connected, isolated), a bool array and
    an int64 array of the deployed nodes with no deployed neighbour, both of
    shape (len(ms), trials); row s answers the view of ms[s] nodes.

    ms must be non-empty, non-decreasing and within 1..block.shape[1];
    anything else raises ValueError.  A one-node view counts as connected,
    with its one node isolated.

    The views are answered in stages, smallest first.  Stage s starts from
    the labels stage s-1 left for the nodes below ms[s-1], which are the
    exact components of that view, gives each new node its own label, and
    hooks only its new edges: the live selection pairs with both ends below
    ms[s] and one end at or past ms[s-1].  Selection columns are added in
    order; column c holds each node's (c+1)-th smallest partner, so once a
    table has no deployed partner in a column it gains no edge later.  Each
    column is merged by rounds of hooking and pointer jumping.  A round
    writes the smaller root of every edge into the parent of the larger (an
    edge inside one component writes its root into itself), then points
    every label straight at its root.  Any of a root's writes may land: each
    is a root no larger in its component, so pointers only decrease, and a
    component's smallest label is never hooked and stays its root.  An edge
    whose larger root now points at its smaller one lies inside one
    component and is dropped; the rest, whose root took another write, are
    re-checked alone next round, until none is left, so a self-write that
    lands over a hook delays it by one round.  A table leaves the stage at
    one point, after its column is hooked: when it has one root (joined), or
    when it is stuck: its column has no deployed partner, or the column is
    the last.  No later column can give a stuck table an edge, so its labels
    are final and its isolated nodes are its singleton components, counted
    at that retirement point on the open tables' labels: the roots no other
    label points at.  A joined view of two or more nodes has none, and a
    one-node view, joined and stuck at once, has its one node.  Either way
    the labels it leaves are the components of its view: the edges a joined
    table skipped lie inside its one component, and a stuck table has none
    left.  So every table enters the next stage; the last stage, which none
    follows, keeps no labels.

    A repeated size needs no special case: its stage has no new node and no
    new edge, so it starts from labels that already are its view's
    components, hooks nothing, and each table leaves through the joined or
    stuck exit with the answers of the stage before.
    """
    ms = tuple(ms)
    if not ms or ms[0] < 1 or ms[-1] > block.shape[1] or any(a > b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"views must be non-decreasing within 1..{block.shape[1]}, got {ms}")
    trials, last = block.shape[0], block.shape[2] - 1
    connected = np.zeros((len(ms), trials), dtype=bool)
    isolated = np.zeros((len(ms), trials), dtype=np.int64)
    # each table's labels as it left the last stage, as node ids of its roots
    labels = np.empty((trials, ms[-1]), dtype=np.int64)
    prev = 0
    for s, m in enumerate(ms):
        labels[:, prev:m] = np.arange(prev, m)
        open_ = np.arange(trials)
        parent = (labels[:, :m] + np.arange(0, trials * m, m)[:, None]).ravel()
        for c in range(last + 1):
            col = block[open_, :m, c]
            live = col < m
            stuck = ~live.any(axis=1) | (c == last)
            # the edges among the first prev nodes are already hooked
            live[:, :prev] &= col[:, :prev] >= prev
            base = np.arange(0, len(parent), m)
            u = np.flatnonzero(live)
            v = (col + base[:, None]).ravel()[u]
            while len(u):
                ru, rv = parent[u], parent[v]
                hooked, low = np.maximum(ru, rv), np.minimum(ru, rv)
                parent[hooked] = low
                # an edge whose root took another edge's write may join two roots
                top = parent[hooked]
                lost = np.flatnonzero(top != low)
                u, v = u[lost], v[lost]
                # jump the hooked roots to final roots, then every node to its root
                while True:
                    up = parent[top]
                    if np.array_equal(up, top):
                        break
                    parent[hooked] = top = up
                parent = parent[parent]
            # pointers only decrease, so each component is rooted at its smallest label
            roots = parent.reshape(-1, m)
            joined = roots.max(axis=1) == base
            done = joined | stuck
            if done.any():
                if s < len(ms) - 1:
                    labels[open_[done], :m] = roots[done] - base[done, None]
                connected[s, open_[joined]] = True
                if stuck.any():
                    sizes = np.bincount(parent, minlength=len(parent)).reshape(-1, m)
                    isolated[s, open_[stuck]] = (sizes[stuck] == 1).sum(axis=1)
                # the open tables left, relabelled to stay contiguous
                rows = np.flatnonzero(~done)
                open_ = open_[rows]
                parent = (roots[rows] + ((np.arange(len(rows)) - rows) * m)[:, None]).ravel()
                if not len(open_):
                    break
        prev = m
    return connected, isolated

