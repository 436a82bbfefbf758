"""Key graph construction, phase views, and connectivity/isolation queries.

Union-find answers are cross-checked against the breadth-first search
route, and the block kernels against both and against count_isolated, over
a large randomized sweep; the three implementations share no traversal
code.
"""

import io

import numpy as np
import pytest

from pairdeploy import (
    PairingTable,
    PhaseView,
    SchemeParams,
    UnionFind,
    build_graph,
    count_isolated,
    generate_pairing,
    is_connected,
    is_connected_bfs,
    restrict,
    table_from_lists,
    write_edge_list,
)
from pairdeploy import montecarlo
from pairdeploy.graphs import connected_at, isolated_count_at
from pairdeploy.sampling import sample_pairing_block


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
    def test_gamma_one_is_identity(self):
        graph = build_graph(generate_pairing(SchemeParams(20, 2), seed=1))
        view = restrict(graph, 1.0)
        assert view.m == 20
        u, v = view.masked_edges()
        assert len(u) == graph.edge_count

    def test_floor_of_quarter(self):
        graph = build_graph(generate_pairing(SchemeParams(10, 2), seed=1))
        assert restrict(graph, 0.25).m == 2

    def test_views_nest(self):
        graph = build_graph(generate_pairing(SchemeParams(100, 3), seed=2))
        small = set(zip(*(a.tolist() for a in restrict(graph, 0.3).masked_edges())))
        big = set(zip(*(a.tolist() for a in restrict(graph, 0.7).masked_edges())))
        assert small <= big

    def test_gamma_domain(self):
        graph = build_graph(generate_pairing(SchemeParams(10, 2), seed=1))
        with pytest.raises(ValueError):
            restrict(graph, 0.0)
        with pytest.raises(ValueError):
            restrict(graph, 1.01)


class TestConnectivity:
    def test_two_disjoint_pairs_not_connected(self):
        table = table_from_lists(4, 1, [[2], [1], [4], [3]])
        view = restrict(build_graph(table), 1.0)
        assert not is_connected(view)
        assert not is_connected_bfs(view)

    def test_star_is_connected(self):
        view = restrict(build_graph(star_table()), 1.0)
        assert is_connected(view)
        assert is_connected_bfs(view)

    def test_single_node_view_is_connected(self):
        view = restrict(build_graph(star_table()), 0.34)
        assert view.m == 1
        assert is_connected(view)
        assert is_connected_bfs(view)
        assert count_isolated(view) == 1  # deployed alone, no neighbor yet


class TestCountIsolated:
    def test_full_deployment_never_isolated(self):
        for seed in range(5):
            table = generate_pairing(SchemeParams(40, 2), seed=seed)
            assert count_isolated(restrict(build_graph(table), 1.0)) == 0

    def test_hand_built_isolated_node(self):
        # nodes 1..3 all select into {4,5,6} and nobody deployed selects
        # node 1, so node 1 is isolated once only half the nodes are out
        table = table_from_lists(6, 1, [[4], [5], [6], [5], [6], [4]])
        view = restrict(build_graph(table), 0.5)
        assert count_isolated(view) == 3

    def test_connected_implies_no_isolated(self):
        hits = 0
        for seed in range(40):
            table = generate_pairing(SchemeParams(30, 2), seed=seed)
            view = restrict(build_graph(table), 0.5)
            if is_connected(view):
                hits += 1
                assert count_isolated(view) == 0
        assert hits > 0  # the implication was actually exercised


def test_union_find_and_bfs_agree_on_random_instances():
    """Over more than 10,000 (table, m) instances, n up to 200: the block
    kernels, union-find, BFS and count_isolated must agree exactly.  The
    views cover m = 1, 2 and n; K covers 1 and n-1."""
    sizes = [(2, 1), (4, 1), (5, 4), (6, 1), (10, 2), (12, 11), (17, 3), (33, 2), (60, 4), (200, 3)]
    per_size = 250
    checked = 0
    for n, k in sizes:
        block = sample_pairing_block(900 + n, 0, per_size, n, k)
        ms = sorted({1, 2, n} | {max(1, n * tenths // 10) for tenths in (3, 5, 8)})
        answers = {m: (connected_at(block, m), isolated_count_at(block, m)) for m in ms}
        for conn, iso in answers.values():
            assert conn.dtype == bool and conn.shape == (per_size,)
            assert iso.dtype == np.int64 and iso.shape == (per_size,)
        params = SchemeParams(n, k)
        for t in range(per_size):
            graph = build_graph(PairingTable(params, block[t]))
            for m, (conn, iso) in answers.items():
                view = PhaseView(graph, m / n, m)
                uf_answer = is_connected(view)
                assert uf_answer == is_connected_bfs(view)
                assert conn[t] == uf_answer
                assert iso[t] == count_isolated(view)
                checked += 1
    assert checked >= 10_000


@pytest.mark.parametrize("seed,trial,n,k,m", [(16, 2, 30, 3, 15), (20, 22, 50, 5, 16)])
def test_connected_at_on_deep_hook_chains(seed, trial, n, k, m):
    """Connected views whose hooking builds chains of roots in one round:
    stopping after a single pointer jump loses a link and says False."""
    block = sample_pairing_block(seed, trial, 1, n, k)
    view = PhaseView(build_graph(PairingTable(SchemeParams(n, k), block[0])), m / n, m)
    assert is_connected(view)
    assert connected_at(block, m).tolist() == [True]


def test_block_kernels_on_hand_built_tables():
    pairs = table_from_lists(4, 1, [[2], [1], [4], [3]]).partners
    star = table_from_lists(4, 1, [[2], [1], [1], [1]]).partners
    block = np.stack([pairs, star])
    assert connected_at(block, 4).tolist() == [False, True]
    assert connected_at(block, 2).tolist() == [True, True]
    assert connected_at(block, 1).tolist() == [True, True]
    assert isolated_count_at(block, 4).tolist() == [0, 0]
    assert isolated_count_at(block, 3).tolist() == [1, 0]
    assert isolated_count_at(block, 1).tolist() == [1, 1]


def test_block_kernels_ignore_block_partitioning(monkeypatch):
    """One-table blocks and the blocks _block_sizes cuts under a small
    budget give the same answers as the whole trial range at once."""
    n, k, trials, seed = 60, 3, 45, 77
    whole = sample_pairing_block(seed, 0, trials, n, k)
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 7 * n * k)
    parts = montecarlo._block_sizes(n, k, trials)
    assert len(parts) == 7 and sum(count for _, count in parts) == trials
    for m in (1, 2, 20, 31, n):
        conn, iso = connected_at(whole, m), isolated_count_at(whole, m)
        blocks = [sample_pairing_block(seed, start, count, n, k) for start, count in parts]
        assert np.array_equal(np.concatenate([connected_at(b, m) for b in blocks]), conn)
        assert np.array_equal(np.concatenate([isolated_count_at(b, m) for b in blocks]), iso)
        for t in range(trials):
            assert connected_at(whole[t : t + 1], m).tolist() == [conn[t]]
            assert isolated_count_at(whole[t : t + 1], m).tolist() == [iso[t]]


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
