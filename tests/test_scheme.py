"""Pairing generation, key rings, and the ring-size conservation law.

The library counts ring sizes with one formula, montecarlo._ring_sizes,
the census's binning.  The oracle here materializes every key of every
ring instead, one pairing at a time, and shares no code with it.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from pairdeploy import montecarlo
from pairdeploy.montecarlo import _ring_sizes
from pairdeploy.scheme import (
    PairingTable,
    SchemeParams,
    generate_pairing,
    phase_size,
)
from pairdeploy.sampling import draw_pairing_block, sample_pairing_block
from pairing_fixtures import table_from_lists


# -- oracle: materialized key rings ---------------------------------------------

@dataclass(frozen=True, order=True)
class PairwiseKeyId:
    """Identity of the key installed for the pairing (initiator -> responder).

    Ids are 1-based.  slot is the 1-based position of responder in the
    initiator's selection list sorted by ascending node id; (initiator,
    slot) determines the key.
    """

    initiator: int
    responder: int
    slot: int


@dataclass(frozen=True)
class KeyRing:
    """All pairwise keys held by one node after the offline step."""

    owner: int
    keys: frozenset

    @property
    def size(self):
        return len(self.keys)


def derive_key_rings(table):
    """Every node's key ring: the key of each pairing it initiated and of
    each pairing that selected it."""
    keys = [set() for _ in range(table.params.n)]
    for i0 in range(table.params.n):
        for slot, j0 in enumerate(table.partners[i0], start=1):
            key = PairwiseKeyId(i0 + 1, int(j0) + 1, slot)
            keys[i0].add(key)
            keys[int(j0)].add(key)
    return [KeyRing(i0 + 1, frozenset(ks)) for i0, ks in enumerate(keys)]


def table_ring_sizes(table):
    """_ring_sizes of a one-table block."""
    return _ring_sizes(table.partners[None])[0]


def test_params_validation():
    SchemeParams(2, 1)
    with pytest.raises(ValueError):
        SchemeParams(1, 1)
    with pytest.raises(ValueError):
        SchemeParams(5, 0)
    with pytest.raises(ValueError):
        SchemeParams(5, 5)


class TestHandExample:
    """n=3, k=1 with selections 1->2, 2->1, 3->1, worked by hand.

    Node 1 holds the key it installed for 2 plus the keys 2 and 3 installed
    for it; node 2 holds its own plus the reciprocal one; node 3 only its
    own.  Sizes 3, 2, 1 summing to 2*3*1.
    """

    @pytest.fixture()
    def table(self):
        return table_from_lists(3, 1, [[2], [1], [1]])

    def test_ring_contents(self, table):
        rings = {r.owner: r.keys for r in derive_key_rings(table)}
        k12 = PairwiseKeyId(1, 2, 1)
        k21 = PairwiseKeyId(2, 1, 1)
        k31 = PairwiseKeyId(3, 1, 1)
        assert rings[1] == {k12, k21, k31}
        assert rings[2] == {k12, k21}
        assert rings[3] == {k31}

    def test_ring_sizes(self, table):
        assert [r.size for r in derive_key_rings(table)] == [3, 2, 1]
        assert table_ring_sizes(table).tolist() == [3, 2, 1]

    def test_reverse_degrees(self, table):
        assert (table_ring_sizes(table) - table.params.k).tolist() == [2, 1, 0]


def test_forced_full_selection():
    # k = n-1 leaves exactly one subset per node
    table = generate_pairing(SchemeParams(5, 4), seed=271828)
    for i in range(5):
        assert table.partners[i].tolist() == [j for j in range(5) if j != i]
    assert table_ring_sizes(table).tolist() == [8] * 5


def test_two_node_scheme():
    table = generate_pairing(SchemeParams(2, 1), seed=3)
    assert table.partners.tolist() == [[1], [0]]


def test_generation_is_deterministic():
    a = generate_pairing(SchemeParams(1000, 3), seed=11, trial=5)
    b = generate_pairing(SchemeParams(1000, 3), seed=11, trial=5)
    assert np.array_equal(a.partners, b.partners)


def test_ring_size_conservation():
    """Every pairing lands in exactly two rings, so sizes sum to 2nk."""
    for n, k, seed in [(10, 1, 0), (50, 7, 1), (300, 12, 2)]:
        table = generate_pairing(SchemeParams(n, k), seed=seed)
        sizes = table_ring_sizes(table)
        assert int(sizes.sum()) == 2 * n * k
        assert sizes.min() >= k


def test_derived_rings_match_size_formula():
    table = generate_pairing(SchemeParams(40, 3), seed=8)
    sizes = table_ring_sizes(table)
    for ring in derive_key_rings(table):
        assert ring.size == sizes[ring.owner - 1]


@pytest.mark.parametrize(
    "n,k,trials,dtype",
    [(10, 3, 6, np.int8), (129, 5, 3, np.int16), (2, 1, 4, np.int8), (9, 8, 3, np.int8)],
    ids=["int8", "int16", "two_nodes", "k_is_n_minus_1"],
)
def test_block_ring_sizes_match_derived_rings(n, k, trials, dtype):
    """_ring_sizes on a sampler block, which is stored selection-major (each
    column contiguous), agrees table by table with the materialized rings."""
    block = sample_pairing_block(31 + n, range(trials), n, k)
    assert block.dtype == dtype
    assert block.strides[2] == block.itemsize * trials * n
    sizes = _ring_sizes(block)
    assert sizes.dtype == np.int64 and sizes.shape == (trials, n)
    for t in range(trials):
        rings = derive_key_rings(PairingTable(SchemeParams(n, k), block[t]))
        assert sizes[t].tolist() == [ring.size for ring in rings]


def bincount_oracle(block):
    """k plus each node's reverse degree, one np.bincount per table."""
    _, n, k = block.shape
    return k + np.array([np.bincount(table.ravel(), minlength=n) for table in block])


@pytest.mark.parametrize(
    "n, k, trials", [(10, 3, 7), (129, 5, 4), (2, 1, 5), (300, 20, 3)], ids=["int8", "int16", "two_nodes", "wide"]
)
@pytest.mark.parametrize("entries", ["one", "table_less_one", "table", "three_tables_and_one"])
def test_ring_sizes_match_bincount_oracle_for_any_call_size(n, k, trials, entries, monkeypatch):
    """Whatever the entries per np.bincount call, _ring_sizes bins the same
    rings: one entry (a column per call), one short of a table (two
    column groups), one table, and three tables plus one (calls of three
    tables, ids offset by table, and a shorter last call).  Sorted and
    unsorted sampler blocks, and a row-major int64 copy, agree."""
    size = {"one": 1, "table_less_one": n * k - 1, "table": n * k, "three_tables_and_one": 3 * n * k + 1}
    monkeypatch.setattr(montecarlo, "_BIN_ENTRIES", size[entries])
    block = sample_pairing_block(n + 7, range(trials), n, k)
    expected = bincount_oracle(block)
    for form in (block, draw_pairing_block(n + 7, range(trials), n, k), np.ascontiguousarray(block, dtype=np.int64)):
        sizes = _ring_sizes(form)
        assert sizes.dtype == np.int64 and sizes.shape == (trials, n)
        assert np.array_equal(sizes, expected)


@pytest.mark.parametrize(
    "n, k, trials, entries",
    [(1057, 31, 3, None), (1024, 32, 3, None), (3641, 9, 3, None), (40000, 2, 2, None),
     (10, 3, 7, 100), (10, 3, 7, 29), (129, 5, 3, 100)],
    ids=["table_less_one", "table", "table_and_one", "column_over_budget",
         "small_three_tables", "small_table_and_one", "small_column_over_budget"],
)
def test_ring_sizes_bins_within_budget(n, k, trials, entries, monkeypatch):
    """Every np.bincount call of _ring_sizes takes at most _BIN_ENTRIES ids,
    or one column of one table where n alone is more, and the calls take
    every id once: n*k one short of, equal to and one over the budget, a
    column over it, and a small budget patched in."""
    if entries is not None:
        monkeypatch.setattr(montecarlo, "_BIN_ENTRIES", entries)
    budget = montecarlo._BIN_ENTRIES
    block = draw_pairing_block(n + 3, range(trials), n, k)
    expected = bincount_oracle(block)
    calls = []
    bincount = np.bincount

    def recorded(ids, *args, **kwargs):
        calls.append(np.size(ids))
        return bincount(ids, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", recorded)
    sizes = _ring_sizes(block)
    monkeypatch.undo()
    assert np.array_equal(sizes, expected)
    assert sum(calls) == trials * n * k
    assert all(size <= budget or size == n > budget for size in calls)


def test_all_key_ids_distinct():
    table = generate_pairing(SchemeParams(30, 4), seed=15)
    all_keys = set()
    for ring in derive_key_rings(table):
        all_keys.update(ring.keys)
    assert len(all_keys) == 30 * 4


def test_selection_marginals_are_uniform():
    """Each of the 3 possible partners of each node appears 1/3 +- 0.01 of
    the time over 30000 tables at n=4, k=1."""
    block = sample_pairing_block(2024, range(30_000), 4, 1)
    for i in range(4):
        counts = np.bincount(block[:, i, 0], minlength=4)
        assert counts[i] == 0
        for j in range(4):
            if j != i:
                assert abs(counts[j] / 30_000 - 1 / 3) < 0.01


def test_subset_distribution_is_uniform():
    # chi-square over all 6 possible 2-subsets for every node at n=5;
    # 0.001-level critical value for 5 degrees of freedom is 20.52
    draws = 120_000
    block = sample_pairing_block(77, range(draws), 5, 2)
    for i in range(5):
        packed = block[:, i, 0] * 5 + block[:, i, 1]
        counts = np.bincount(packed, minlength=25)
        observed = counts[counts > 0]
        assert len(observed) == 6
        chi2 = float(((observed - draws / 6) ** 2 / (draws / 6)).sum())
        assert chi2 < 20.52


def test_reverse_degree_moments():
    """Pooled reverse degrees at n=1000, k=10: mean exactly k by
    conservation, variance near k*(1 - k/(n-1))."""
    n, k, trials = 1000, 10, 100
    block = sample_pairing_block(5150, range(trials), n, k)
    degs = _ring_sizes(block) - k
    pooled = degs.ravel().astype(np.float64)
    assert abs(pooled.mean() - k) < 0.1  # exact up to float summation
    expected_var = k * (1 - k / (n - 1))
    assert abs(pooled.var() - expected_var) < 0.3


def test_mean_ring_size_is_twice_k():
    n, k, trials = 500, 21, 200
    block = sample_pairing_block(61, range(trials), n, k)
    sizes = _ring_sizes(block)
    assert abs(float(sizes.mean()) - 2 * k) < 0.2


class TestPhaseSize:
    def test_floor_arithmetic(self):
        assert phase_size(10, 0.25) == 2
        assert phase_size(1000, 0.5) == 500
        assert phase_size(7, 1.0) == 7

    def test_decimal_floor_is_exact(self):
        # 0.3 * 10 is 2.999... in binary; the decimal value must win
        assert phase_size(10, 0.3) == 3
        assert phase_size(100, 0.07) == 7

    def test_domain(self):
        with pytest.raises(ValueError):
            phase_size(10, 0.0)
        with pytest.raises(ValueError):
            phase_size(10, 1.5)
        with pytest.raises(ValueError):
            phase_size(10, 0.05)  # floor would be 0


class TestTableValidation:
    def test_rejects_self_selection(self):
        with pytest.raises(ValueError):
            table_from_lists(3, 1, [[1], [1], [1]])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            table_from_lists(4, 2, [[2, 2], [1, 3], [1, 2], [1, 2]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            table_from_lists(3, 1, [[2], [4], [1]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PairingTable(SchemeParams(3, 1), np.zeros((2, 1), dtype=np.int64))

    def test_partner_array_is_frozen(self):
        table = table_from_lists(3, 1, [[2], [1], [1]])
        with pytest.raises(ValueError):
            table.partners[0, 0] = 2

