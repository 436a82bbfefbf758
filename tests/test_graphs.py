"""Key graph construction, deployment views, and the block kernel.

The library answers both deployment questions with one kernel,
connected_at, which returns (connected, isolated) for each table of a
block.  This module holds independent oracles that work on the edge list
of build_graph instead: union-find, breadth-first search and an edge-mask
isolated count.  They share no traversal code with the kernel or with each
other, and a large randomized sweep checks that all of them agree.
"""

import io

import numpy as np
import pytest

from pairdeploy import (
    PairingTable,
    SchemeParams,
    build_graph,
    connected_at,
    generate_pairing,
    phase_size,
    table_from_lists,
    write_edge_list,
)
from pairdeploy import montecarlo
from pairdeploy.sampling import sample_pairing_block


# -- oracles on the edge list ---------------------------------------------------

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


def deployed_edges(graph, m):
    """Edges of the graph with both endpoints among the first m nodes."""
    keep = (graph.edge_u < m) & (graph.edge_v < m)
    return graph.edge_u[keep].tolist(), graph.edge_v[keep].tolist()


def uf_connected(graph, m):
    uf = UnionFind(m)
    for a, b in zip(*deployed_edges(graph, m)):
        uf.union(a, b)
    return uf.components == 1


def bfs_connected(graph, m):
    adj = [[] for _ in range(m)]
    for a, b in zip(*deployed_edges(graph, m)):
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


def mask_isolated(graph, m):
    u, v = deployed_edges(graph, m)
    touched = np.zeros(m, dtype=bool)
    touched[u] = True
    touched[v] = True
    return int(m - touched.sum())


def kernels(table, m):
    """connected_at on a one-table block."""
    connected, isolated = connected_at(table.partners[None], m)
    return bool(connected[0]), int(isolated[0])


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


class TestBuildGraph:
    def test_reciprocal_pairing_collapses_to_one_edge(self):
        graph = build_graph(star_table())
        assert graph.edges() == {(1, 2), (1, 3)}
        assert graph.edge_count == 2

    def test_full_selection_gives_complete_graph(self):
        table = generate_pairing(SchemeParams(5, 4), seed=0)
        graph = build_graph(table)
        assert graph.edge_count == 10
        assert graph.degrees().tolist() == [4] * 5

    def test_edge_count_at_most_nk(self):
        for seed in range(5):
            table = generate_pairing(SchemeParams(60, 3), seed=seed)
            assert build_graph(table).edge_count <= 60 * 3

    def test_min_degree_at_least_k(self):
        for seed in range(10):
            table = generate_pairing(SchemeParams(80, 4), seed=seed)
            assert build_graph(table).degrees().min() >= 4

    def test_no_self_loops_and_normalized(self):
        graph = build_graph(generate_pairing(SchemeParams(50, 2), seed=9))
        assert (graph.edge_u < graph.edge_v).all()


class TestRestrict:
    """The view at fraction gamma keeps the first floor(gamma*n) nodes."""

    def test_gamma_one_is_identity(self):
        graph = build_graph(generate_pairing(SchemeParams(20, 2), seed=1))
        m = phase_size(20, 1.0)
        assert m == 20
        u, v = deployed_edges(graph, m)
        assert len(u) == graph.edge_count

    def test_floor_of_quarter(self):
        assert phase_size(10, 0.25) == 2

    def test_views_nest(self):
        graph = build_graph(generate_pairing(SchemeParams(100, 3), seed=2))
        small = set(zip(*deployed_edges(graph, phase_size(100, 0.3))))
        big = set(zip(*deployed_edges(graph, phase_size(100, 0.7))))
        assert small <= big

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            phase_size(10, 0.0)
        with pytest.raises(ValueError):
            phase_size(10, 1.01)


class TestConnectivity:
    def test_two_disjoint_pairs_not_connected(self):
        table = table_from_lists(4, 1, [[2], [1], [4], [3]])
        graph = build_graph(table)
        assert kernels(table, 4) == (False, 0)
        assert not uf_connected(graph, 4)
        assert not bfs_connected(graph, 4)

    def test_star_is_connected(self):
        graph = build_graph(star_table())
        assert kernels(star_table(), 3) == (True, 0)
        assert uf_connected(graph, 3)
        assert bfs_connected(graph, 3)

    def test_single_node_view_is_connected(self):
        graph = build_graph(star_table())
        m = phase_size(3, 0.34)
        assert m == 1
        assert kernels(star_table(), m) == (True, 1)  # deployed alone, no neighbor yet
        assert uf_connected(graph, m)
        assert bfs_connected(graph, m)
        assert mask_isolated(graph, m) == 1


class TestCountIsolated:
    def test_full_deployment_never_isolated(self):
        for seed in range(5):
            table = generate_pairing(SchemeParams(40, 2), seed=seed)
            assert kernels(table, 40)[1] == 0
            assert mask_isolated(build_graph(table), 40) == 0

    def test_hand_built_isolated_node(self):
        # nodes 1..3 all select into {4,5,6} and nobody deployed selects
        # node 1, so node 1 is isolated once only half the nodes are out
        table = table_from_lists(6, 1, [[4], [5], [6], [5], [6], [4]])
        m = phase_size(6, 0.5)
        assert kernels(table, m)[1] == 3
        assert mask_isolated(build_graph(table), m) == 3

    def test_connected_implies_no_isolated(self):
        tables = [generate_pairing(SchemeParams(30, 2), seed=seed) for seed in range(40)]
        block = np.stack([t.partners for t in tables])
        connected, isolated = connected_at(block, 15)
        assert connected.any()  # the implication was actually exercised
        assert (isolated[connected] == 0).all()


def test_union_find_and_bfs_agree_on_random_instances():
    """Over more than 10,000 (table, m) instances, n up to 200: the block
    kernel, the union-find and BFS oracles and the edge-mask isolated
    count must agree exactly.  The views cover m = 1, 2 and n; K covers 1
    and n-1."""
    sizes = [(2, 1), (4, 1), (5, 4), (6, 1), (10, 2), (12, 11), (17, 3), (33, 2), (60, 4), (200, 3)]
    per_size = 250
    checked = 0
    for n, k in sizes:
        block = sample_pairing_block(900 + n, 0, per_size, n, k)
        ms = sorted({1, 2, n} | {max(1, n * tenths // 10) for tenths in (3, 5, 8)})
        answers = {m: connected_at(block, m) for m in ms}
        for conn, iso in answers.values():
            assert conn.dtype == bool and conn.shape == (per_size,)
            assert iso.dtype == np.int64 and iso.shape == (per_size,)
        params = SchemeParams(n, k)
        for t in range(per_size):
            graph = build_graph(PairingTable(params, block[t]))
            for m, (conn, iso) in answers.items():
                uf_answer = uf_connected(graph, m)
                assert uf_answer == bfs_connected(graph, m)
                assert conn[t] == uf_answer
                assert iso[t] == mask_isolated(graph, m)
                checked += 1
    assert checked >= 10_000


@pytest.mark.parametrize("seed,trial,n,k,m", [(16, 2, 30, 3, 15), (20, 22, 50, 5, 16)])
def test_connected_at_on_deep_hook_chains(seed, trial, n, k, m):
    """Connected views whose hooking builds chains of roots in one round:
    stopping after a single pointer jump loses a link and says False."""
    block = sample_pairing_block(seed, trial, 1, n, k)
    graph = build_graph(PairingTable(SchemeParams(n, k), block[0]))
    assert uf_connected(graph, m)
    assert connected_at(block, m)[0].tolist() == [True]


def test_block_kernels_on_hand_built_tables():
    pairs = table_from_lists(4, 1, [[2], [1], [4], [3]]).partners
    star = table_from_lists(4, 1, [[2], [1], [1], [1]]).partners
    block = np.stack([pairs, star])
    assert connected_at(block, 4)[0].tolist() == [False, True]
    assert connected_at(block, 2)[0].tolist() == [True, True]
    assert connected_at(block, 1)[0].tolist() == [True, True]
    assert connected_at(block, 4)[1].tolist() == [0, 0]
    assert connected_at(block, 3)[1].tolist() == [1, 0]
    assert connected_at(block, 1)[1].tolist() == [1, 1]


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
        assert mask_isolated(build_graph(table), m) == expected[name][1], name
    block = np.stack([table.partners for table in built.values()])
    connected, isolated = connected_at(block, m)
    assert list(zip(connected.tolist(), isolated.tolist())) == list(expected.values())
    connected, isolated = connected_at(block, 1)
    assert connected.tolist() == [True] * 4 and isolated.tolist() == [1] * 4


def test_block_kernels_ignore_block_partitioning(monkeypatch):
    """One-table blocks and the blocks _block_sizes cuts under a small
    budget give the same answers as the whole trial range at once."""
    n, k, trials, seed = 60, 3, 45, 77
    whole = sample_pairing_block(seed, 0, trials, n, k)
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 7 * n * k)
    parts = montecarlo._block_sizes(n, k, trials)
    assert len(parts) == 7 and sum(count for _, count in parts) == trials
    for m in (1, 2, 20, 31, n):
        conn, iso = connected_at(whole, m)
        blocks = [sample_pairing_block(seed, start, count, n, k) for start, count in parts]
        assert np.array_equal(np.concatenate([connected_at(b, m)[0] for b in blocks]), conn)
        assert np.array_equal(np.concatenate([connected_at(b, m)[1] for b in blocks]), iso)
        for t in range(trials):
            assert connected_at(whole[t : t + 1], m)[0].tolist() == [conn[t]]
            assert connected_at(whole[t : t + 1], m)[1].tolist() == [iso[t]]


def test_edge_list_export_format():
    buf = io.StringIO()
    write_edge_list(build_graph(star_table()), buf)
    assert buf.getvalue() == "1 2\n1 3\n"


def test_edge_list_export_is_sorted():
    graph = build_graph(generate_pairing(SchemeParams(30, 2), seed=3))
    buf = io.StringIO()
    write_edge_list(graph, buf)
    pairs = [tuple(map(int, line.split())) for line in buf.getvalue().splitlines()]
    assert pairs == sorted(pairs)
    assert all(a < b for a, b in pairs)
