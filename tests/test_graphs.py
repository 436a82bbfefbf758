"""Deployment views and the block kernel.

The library answers both deployment questions with one kernel,
connected_at, which returns (connected, isolated) for each table of a
block and each of its nested views, in stages that hand their labels on
from one view to the next.  This module holds independent oracles that
work on the selection pairs (i, partners[i, c]) of a table instead:
union-find, breadth-first search and an edge-mask isolated count.  A mutual pair is listed twice,
which changes none of their answers.  They share no traversal code with
the kernel or with each other, and a large randomized sweep checks that
all of them agree.
"""

import numpy as np
import pytest

from pairdeploy import montecarlo, sampling
from pairdeploy.graphs import connected_at
from pairdeploy.scheme import PairingTable, SchemeParams, generate_pairing, phase_size
from pairdeploy.sampling import sample_pairing_block
from pairing_fixtures import table_from_lists


# -- oracles on the selection pairs -------------------------------------------

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


def deployed_edges(table, m):
    """Selection pairs (i, partners[i, c]) with both ends among the first m
    nodes, as two lists; a mutual pair appears once from each end."""
    rows = table.partners[:m]
    keep = rows < m
    return np.nonzero(keep)[0].tolist(), rows[keep].tolist()


def uf_connected(table, m):
    uf = UnionFind(m)
    for a, b in zip(*deployed_edges(table, m)):
        uf.union(a, b)
    return uf.components == 1


def bfs_connected(table, m):
    adj = [[] for _ in range(m)]
    for a, b in zip(*deployed_edges(table, m)):
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


def mask_isolated(table, m):
    u, v = deployed_edges(table, m)
    touched = np.zeros(m, dtype=bool)
    touched[u] = True
    touched[v] = True
    return int(m - touched.sum())


def kernels(table, m):
    """connected_at on a one-table block and its one view of m nodes."""
    connected, isolated = connected_at(table.partners[None], (m,))
    return bool(connected[0, 0]), int(isolated[0, 0])


def star_table():
    return table_from_lists(3, 1, [[2], [1], [1]])


class TestUnionFind:
    def test_components_shrink_only_on_new_merges(self):
        uf = UnionFind(4)
        assert uf.components == 4
        assert uf.union(0, 1)
        assert uf.union(2, 3)
        assert uf.components == 2
        assert not uf.union(1, 0)
        assert uf.components == 2
        assert uf.union(0, 3)
        assert uf.components == 1

    def test_find_connects_transitively(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)


class TestRestrict:
    """The view at fraction gamma keeps the first floor(gamma*n) nodes."""

    def test_gamma_one_is_identity(self):
        table = generate_pairing(SchemeParams(20, 2), seed=1)
        m = phase_size(20, 1.0)
        assert m == 20
        u, v = deployed_edges(table, m)
        assert len(u) == table.partners.size

    def test_floor_of_quarter(self):
        assert phase_size(10, 0.25) == 2

    def test_views_nest(self):
        table = generate_pairing(SchemeParams(100, 3), seed=2)
        small = set(zip(*deployed_edges(table, phase_size(100, 0.3))))
        big = set(zip(*deployed_edges(table, phase_size(100, 0.7))))
        assert small <= big

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            phase_size(10, 0.0)
        with pytest.raises(ValueError):
            phase_size(10, 1.01)


class TestConnectivity:
    def test_two_disjoint_pairs_not_connected(self):
        table = table_from_lists(4, 1, [[2], [1], [4], [3]])
        assert kernels(table, 4) == (False, 0)
        assert not uf_connected(table, 4)
        assert not bfs_connected(table, 4)

    def test_star_is_connected(self):
        table = star_table()
        assert kernels(table, 3) == (True, 0)
        assert uf_connected(table, 3)
        assert bfs_connected(table, 3)

    def test_single_node_view_is_connected(self):
        table = star_table()
        m = phase_size(3, 0.34)
        assert m == 1
        assert kernels(table, m) == (True, 1)  # deployed alone, no neighbor yet
        assert uf_connected(table, m)
        assert bfs_connected(table, m)
        assert mask_isolated(table, m) == 1


class TestCountIsolated:
    def test_full_deployment_never_isolated(self):
        for seed in range(5):
            table = generate_pairing(SchemeParams(40, 2), seed=seed)
            assert kernels(table, 40)[1] == 0
            assert mask_isolated(table, 40) == 0

    def test_hand_built_isolated_node(self):
        # nodes 1..3 all select into {4,5,6} and nobody deployed selects
        # node 1, so node 1 is isolated once only half the nodes are out
        table = table_from_lists(6, 1, [[4], [5], [6], [5], [6], [4]])
        m = phase_size(6, 0.5)
        assert kernels(table, m)[1] == 3
        assert mask_isolated(table, m) == 3

    def test_connected_implies_no_isolated(self):
        tables = [generate_pairing(SchemeParams(30, 2), seed=seed) for seed in range(40)]
        block = np.stack([t.partners for t in tables])
        (connected,), (isolated,) = connected_at(block, (15,))
        assert connected.any()  # the implication was actually exercised
        assert (isolated[connected] == 0).all()


def test_union_find_and_bfs_agree_on_random_instances():
    """Over more than 10,000 (table, m) instances, n up to 200: the block
    kernel, called once per block with all its views, the union-find and
    BFS oracles and the edge-mask isolated count must agree exactly, and
    each row must equal the kernel's answer for that view alone, and each
    column its answer for that table alone.  On a one-table block no other
    table's hooking rounds jump the labels again, so a kernel that
    under-jumps fails there.  The views cover m = 1, 2 and n; K covers 1
    and n-1."""
    sizes = [(2, 1), (4, 1), (5, 4), (6, 1), (10, 2), (12, 11), (17, 3), (33, 2), (60, 4), (200, 3)]
    per_size = 250
    checked = 0
    for n, k in sizes:
        block = sample_pairing_block(900 + n, range(per_size), n, k)
        ms = sorted({1, 2, n} | {max(1, n * tenths // 10) for tenths in (3, 5, 8)})
        conn, iso = connected_at(block, ms)
        assert conn.dtype == bool and conn.shape == (len(ms), per_size)
        assert iso.dtype == np.int64 and iso.shape == (len(ms), per_size)
        for s, m in enumerate(ms):
            alone = connected_at(block, (m,))
            assert np.array_equal(alone[0][0], conn[s]) and np.array_equal(alone[1][0], iso[s])
        params = SchemeParams(n, k)
        for t in range(per_size):
            table = PairingTable(params, block[t])
            one = connected_at(block[t : t + 1], ms)
            assert np.array_equal(one[0][:, 0], conn[:, t]) and np.array_equal(one[1][:, 0], iso[:, t])
            for s, m in enumerate(ms):
                uf_answer = uf_connected(table, m)
                assert uf_answer == bfs_connected(table, m)
                assert conn[s, t] == uf_answer
                assert iso[s, t] == mask_isolated(table, m)
                checked += 1
    assert checked >= 10_000


# (seed, trial, n, k, m) of a one-table block: (connected, isolated) of its view
DEEP_HOOK_CHAINS = {
    (16, 2, 30, 3, 15): (True, 0),
    (20, 22, 50, 5, 16): (True, 0),
    (26, 46, 30, 3, 15): (True, 0),
    (19, 20, 50, 2, 33): (True, 0),
    (5, 34, 30, 2, 15): (False, 2),
}


@pytest.mark.parametrize("seed,trial,n,k,m", DEEP_HOOK_CHAINS)
def test_connected_at_on_deep_hook_chains(seed, trial, n, k, m):
    """Views whose hooking builds chains of roots in one round.  Stopping
    after a single pointer jump loses a link: on a one-table block, where no
    other table's rounds jump the labels again, it says False for the
    connected views (26, 46, ...) and (19, 20, ...), and counts a third
    isolated node on (5, 34, ...).  The oracles pin what each view is, so a
    case that stopped being connected would fail here, not pass unseen."""
    block = sample_pairing_block(seed, range(trial, trial + 1), n, k)
    table = PairingTable(SchemeParams(n, k), block[0])
    expected = DEEP_HOOK_CHAINS[seed, trial, n, k, m]
    assert (uf_connected(table, m), mask_isolated(table, m)) == expected
    assert kernels(table, m) == expected


def test_lost_hook_is_checked_again():
    """Two edges of one column hook the same root with different targets,
    and the losing edge alone joins two components.  Node 3 selects node 1
    and node 2 selects node 3, so both edges hook root 3, onto 1 and onto 2;
    one target wins, and the other edge is checked again.  A kernel that
    stops after one round says (False, 1)."""
    table = table_from_lists(3, 1, [[3], [3], [1]])
    assert (uf_connected(table, 3), bfs_connected(table, 3), mask_isolated(table, 3)) == (True, True, 0)
    assert kernels(table, 3) == (True, 0)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
def test_edges_inside_one_component_hook_their_root_onto_itself(dtype):
    """Edges inside one component go through the hooking step with the
    rest, and which of one root's writes lands does not change the answer.
    In the view of 6 nodes of both tables, column 0 leaves two components,
    {0, 4} and {1, 2, 3, 5} (0-based).  In column 1 two edges lie inside
    root 1's component, so each writes root 1 into itself, while a third
    edge writes root 0 into it in the same round.  In flat order (by source
    node) the first table's cross edge 5-4 comes after its inner edges 1-3
    and 3-5; the mirror's cross edge 1-4 comes before 3-5 and 5-3, so there
    a self-edge's write lands last where the last write wins.  Whichever
    lands, an edge that sees its root hooked elsewhere is checked again
    next round."""
    for rows in (
        [[5, 7], [3, 4], [2, 7], [3, 6], [1, 7], [4, 5], [1, 2]],
        [[5, 7], [3, 5], [2, 7], [3, 6], [1, 7], [2, 4], [1, 2]],
    ):
        table = table_from_lists(7, 2, rows)
        assert (uf_connected(table, 6), bfs_connected(table, 6), mask_isolated(table, 6)) == (True, True, 0)
        connected, isolated = connected_at(table.partners[None].astype(dtype), (6,))
        assert (bool(connected[0, 0]), int(isolated[0, 0])) == (True, 0)


def test_block_kernels_on_hand_built_tables():
    pairs = table_from_lists(4, 1, [[2], [1], [4], [3]]).partners
    star = table_from_lists(4, 1, [[2], [1], [1], [1]]).partners
    block = np.stack([pairs, star])
    connected, isolated = connected_at(block, (1, 2, 3, 4))
    assert connected.tolist() == [[True, True], [True, True], [False, True], [False, True]]
    assert isolated.tolist() == [[1, 1], [0, 0], [1, 0], [0, 0]]


def test_isolated_counted_at_every_retirement_point():
    """A table leaves connected_at when it connects, when a column has no
    deployed partner left, or when the columns run out; each of the last
    two reports isolated nodes that only its own singleton count finds.
    In one block the four tables also leave in a mixed order."""
    m = 4
    tables = {
        # column 0 has no deployed partner: all four deployed nodes alone
        "no_partner_first": [[5, 6], [5, 6], [5, 6], [5, 6], [1, 2], [1, 2]],
        # column 0 joins 1 and 2, column 1 has no deployed partner: 3, 4 alone
        "no_partner_later": [[2, 5], [1, 6], [5, 6], [5, 6], [1, 2], [1, 2]],
        # column 0 joins all four deployed nodes
        "connected": [[2, 3], [1, 4], [1, 4], [1, 2], [1, 2], [1, 2]],
        # columns run out with 1, 2, 3 joined and 4 alone
        "columns_run_out": [[2, 3], [1, 3], [1, 2], [5, 6], [1, 2], [1, 2]],
    }
    expected = {
        "no_partner_first": (False, 4),
        "no_partner_later": (False, 2),
        "connected": (True, 0),
        "columns_run_out": (False, 1),
    }
    built = {name: table_from_lists(6, 2, rows) for name, rows in tables.items()}
    for name, table in built.items():
        assert kernels(table, m) == expected[name], name
        assert mask_isolated(table, m) == expected[name][1], name
    block = np.stack([table.partners for table in built.values()])
    connected, isolated = connected_at(block, (1, m))
    assert connected[0].tolist() == [True] * 4 and isolated[0].tolist() == [1] * 4
    assert list(zip(connected[1].tolist(), isolated[1].tolist())) == list(expected.values())


def test_stuck_table_leaves_before_the_last_column():
    """A table with no deployed partner in a column leaves the kernel there,
    not on the last column.

    The rows are deliberately unsorted, outside the sorted-rows contract:
    on sorted rows a stuck table gains no edge later, so its answer is the
    same whenever it leaves and the exit cannot be observed.  Here column 0
    names no deployed node, and column 1 would join nodes 0 and 1; a kernel
    that kept the table open until the last column would report (True, 0).
    """
    block = np.array([[[2, 1], [3, 0], [0, 1], [0, 1]]])
    connected, isolated = connected_at(block, (2,))
    assert connected.tolist() == [[False]] and isolated.tolist() == [[2]]


# (views, 1-based rows of an n=6, K=2 table, (connected, isolated) per view)
HANDOFFS = {
    # stage 1 (m=3) joins on column 0 and skips column 1, whose edge 1-4 is
    # node 4's only one: stage 2 (m=4) must hook it from an old row
    "joined_early": ((3, 4), [[2, 4], [1, 6], [1, 6], [5, 6], [1, 2], [1, 2]], [(True, 0), (True, 0)]),
    # stage 1 (m=2) is stuck on column 0; stage 2 (m=4) joins on column 0
    "stuck_then_joined": ((2, 4), [[3, 4], [3, 4], [1, 5], [2, 5], [1, 2], [1, 2]], [(False, 2), (True, 0)]),
    # stage 1 (m=3) joins; nobody deployed selects node 4, nor it them
    "split_by_new_node": ((3, 4), [[2, 5], [1, 5], [1, 5], [5, 6], [1, 2], [1, 2]], [(True, 0), (False, 1)]),
    # a one-node first view, then a triangle
    "one_node_first": ((1, 3), [[2, 3], [1, 3], [1, 2], [1, 2], [1, 2], [1, 2]], [(True, 1), (True, 0)]),
}


@pytest.mark.parametrize("name", sorted(HANDOFFS))
def test_stage_handoffs(name):
    """Each stage starts from the labels the last one left, also for tables
    that left it early, and adds the new edges from old rows too."""
    ms, rows, expected = HANDOFFS[name]
    table = table_from_lists(6, 2, rows)
    connected, isolated = connected_at(table.partners[None], ms)
    assert list(zip(connected[:, 0].tolist(), isolated[:, 0].tolist())) == expected
    assert [(uf_connected(table, m), mask_isolated(table, m)) for m in ms] == expected
    assert [kernels(table, m) for m in ms] == expected


def test_stage_handoffs_in_one_block():
    """The four handoff tables in one block, with every view of 1..6 nodes,
    so that they hand over at every stage and leave in a mixed order."""
    tables = [table_from_lists(6, 2, rows) for _, rows, _ in HANDOFFS.values()]
    ms = range(1, 7)
    connected, isolated = connected_at(np.stack([t.partners for t in tables]), ms)
    for t, table in enumerate(tables):
        assert connected[:, t].tolist() == [uf_connected(table, m) for m in ms]
        assert isolated[:, t].tolist() == [mask_isolated(table, m) for m in ms]


def test_repeated_view_sizes_answer_like_distinct_ones():
    """Two fractions of a schedule can floor to one view size.  A repeated
    size is a stage with no new node or edge, so each of its rows must be
    the row of the strictly increasing call: on the handoff tables, on
    random blocks and for random schedules with repeats.  So
    connected_at(block, (3, 3)) gives two equal rows."""
    handoffs = np.stack([table_from_lists(6, 2, rows).partners for _, rows, _ in HANDOFFS.values()])
    small = [handoffs] + [sample_pairing_block(60 + k, range(40), 6, k) for k in (1, 2, 3)]
    cases = [(block, (1, 1, 2, 3, 3, 6, 6)) for block in small]
    n40 = sample_pairing_block(7, range(50), 40, 2)
    rng = np.random.default_rng(11)
    schedules = [(3, 3), (40, 40)] + [tuple(np.sort(rng.integers(1, 41, size=6)).tolist()) for _ in range(20)]
    cases += [(n40, ms) for ms in schedules]
    for block, ms in cases:
        distinct = sorted(set(ms))
        rows = [distinct.index(m) for m in ms]
        for got, want in zip(connected_at(block, ms), connected_at(block, distinct)):
            assert np.array_equal(got, want[rows]), ms


@pytest.mark.parametrize(
    "ms",
    [(), (0,), (0, 3), (4, 2), (12,), (1, 6)],
    ids=["empty", "zero", "zero_first", "falling", "past_rows", "last_past_rows"],
)
def test_views_the_block_does_not_hold_are_rejected(ms):
    """A view must be 1..rows nodes, and the views non-decreasing: a 5-row
    block once answered m=12 by counting 7 never-drawn nodes."""
    block = sample_pairing_block(3, range(3), 40, 2, rows=range(5))
    with pytest.raises(ValueError, match="non-decreasing"):
        connected_at(block, ms)


def test_block_kernels_ignore_block_partitioning():
    """One-table blocks and blocks of seven trials, as the Monte Carlo runs
    cut them, give the same answers as the whole trial range at once."""
    n, k, trials, seed = 60, 3, 45, 77
    whole = sample_pairing_block(sampling.fold(seed, k), range(trials), n, k)
    blocks = [
        sample_pairing_block(sampling.fold(seed, k), range(first, min(first + 7, trials)), n, k)
        for first in range(0, trials, 7)
    ]
    assert len(blocks) == 7 and sum(len(block) for block in blocks) == trials
    ms = (1, 2, 20, 31, n)
    conn, iso = connected_at(whole, ms)
    answers = [connected_at(b, ms) for b in blocks]
    assert np.array_equal(np.concatenate([a[0] for a in answers], axis=1), conn)
    assert np.array_equal(np.concatenate([a[1] for a in answers], axis=1), iso)
    for t in range(trials):
        one = connected_at(whole[t : t + 1], ms)
        assert np.array_equal(one[0][:, 0], conn[:, t]) and np.array_equal(one[1][:, 0], iso[:, t])


@pytest.mark.parametrize("n", [10, 128, 129, 32768, 32769])
def test_narrow_blocks_answer_like_int64_blocks(n):
    """The kernel answers the sampler's narrow block as it answers its int64
    copy, also where m (128, 32768) lies beyond the narrow type's range,
    and as it answers same-type copies in C and in Fortran order: the
    sampler lays a block out column by column, and no answer may depend on
    the layout.  So too for a block of the deployment runs' first pass,
    whose lower half of rows holds one step, padded to k columns."""
    for k in (1, 2, 3):
        ms = (1, 2, n // 2, n - 1, n)
        block = sample_pairing_block(500 + n, range(3), n, k)
        padded = montecarlo._band_block(500 + n, n, k, range(3), [(0, n // 2, 1), (n // 2, n, k)])
        for drawn in (block, padded):
            want = connected_at(drawn, ms)
            for copy in (drawn.astype(np.int64), np.ascontiguousarray(drawn), np.asfortranarray(drawn)):
                for got, wanted in zip(connected_at(copy, ms), want):
                    assert got.dtype == wanted.dtype
                    assert np.array_equal(got, wanted), (k, copy.dtype, copy.flags.f_contiguous)

