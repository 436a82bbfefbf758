"""Stream keying, Floyd subset sampling, and block reproducibility."""

import tracemalloc

import numpy as np
import pytest

from pairdeploy import sampling
from pairdeploy.sampling import (
    GOLDEN,
    MASK64,
    _CHUNK,
    _NETWORK_MAX_K,
    _network_sort,
    floyd_sample,
    fold,
    mix64,
    node_stream_keys,
    sample_pairing_block,
)


def mix64_array(z):
    """SplitMix64 finalizer over a uint64 array, out of place."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_values(keys, step):
    """Stream oracle: the step-th word (0-based) of the SplitMix64 stream
    under each key."""
    return mix64_array(keys + np.uint64((step + 1) * GOLDEN & MASK64))


def floyd_oracle(keys, m, k):
    """Floyd's algorithm over the whole key array at once, one draw step
    per pass, with numpy's modulo; int64 values."""
    out = np.empty((k,) + keys.shape, dtype=np.int64)
    for idx, j in enumerate(range(m - k, m)):
        t = (stream_values(keys, idx) % np.uint64(j + 1)).astype(np.int64)
        if idx:
            t = np.where((out[:idx] == t).any(axis=0), j, t)
        out[idx] = t
    return np.moveaxis(out, 0, -1)


# Published SplitMix64 outputs for seed 0.  The reference generator advances
# its state by GOLDEN before finalizing, so output l must equal
# mix64((l+1) * GOLDEN).
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_mix64_matches_published_vectors():
    for step, expected in enumerate(SPLITMIX64_SEED0):
        assert mix64(((step + 1) * GOLDEN) & MASK64) == expected


def test_mix64_stays_in_64_bits():
    for z in [0, 1, MASK64, GOLDEN, 2**63, 12345678901234567890]:
        assert 0 <= mix64(z) <= MASK64


def test_stream_values_match_scalar_reference():
    keys = np.array([0, 1, GOLDEN, MASK64], dtype=np.uint64)
    for step in (0, 1, 7):
        got = stream_values(keys, step)
        for key, word in zip(keys.tolist(), got.tolist()):
            assert word == mix64((key + (step + 1) * GOLDEN) & MASK64)


def test_stream_values_for_zero_key_are_splitmix64_seed0():
    keys = np.zeros(1, dtype=np.uint64)
    got = [int(stream_values(keys, step)[0]) for step in range(3)]
    assert got == SPLITMIX64_SEED0


def test_node_stream_keys_equal_scalar_fold_chain():
    seed, n = 987654321, 7
    trials = np.arange(3, dtype=np.uint64)
    keys = node_stream_keys(seed, trials, n)
    assert keys.shape == (3, n)
    for t in range(3):
        for i in range(n):
            expected = fold(fold(seed, t), (i * GOLDEN) & MASK64)
            assert int(keys[t, i]) == expected


def test_distinct_trials_and_nodes_get_distinct_keys():
    keys = node_stream_keys(42, np.arange(50, dtype=np.uint64), 40)
    assert len(set(keys.ravel().tolist())) == keys.size


def test_floyd_sample_full_subset_is_forced():
    keys = node_stream_keys(0, np.arange(10, dtype=np.uint64), 4).ravel()
    out = floyd_sample(keys, 4, 4)
    assert np.array_equal(np.sort(out, axis=-1), np.tile(np.arange(4), (40, 1)))


def test_floyd_sample_entries_distinct_and_in_range():
    keys = node_stream_keys(7, np.arange(200, dtype=np.uint64), 1).ravel()
    out = floyd_sample(keys, 9, 4)
    assert out.min() >= 0 and out.max() < 9
    for row in out:
        assert len(set(row.tolist())) == 4


def test_floyd_sample_rejects_bad_k():
    keys = np.zeros(1, dtype=np.uint64)
    with pytest.raises(ValueError):
        floyd_sample(keys, 5, 0)
    with pytest.raises(ValueError):
        floyd_sample(keys, 5, 6)


@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7])
@pytest.mark.parametrize(
    "m, k, dtype",
    [(9, 4, np.int8), (5, 5, np.int8), (1000, 7, np.int16), (40_000, 3, np.int32)],
    ids=["int8", "int8_full", "int16", "int32"],
)
def test_floyd_sample_chunks_match_whole_array_oracle(count, m, k, dtype):
    """Chunk edges change no draw: the chunked sampler equals the one-pass
    oracle bit for bit, just below, at and just above each boundary."""
    keys = node_stream_keys(count, np.arange(1, dtype=np.uint64), count)
    got = floyd_sample(keys, m, k)
    assert got.shape == (1, count, k) and got.dtype == dtype
    assert np.array_equal(got, floyd_oracle(keys, m, k))


def test_floyd_sample_uniform_over_all_subsets():
    """Chi-square goodness of fit over the 6 subsets of size 2 from 4 items.

    30000 draws against the 0.001-level critical value 20.52 for 5 degrees
    of freedom; deterministic under the fixed seed.
    """
    draws = 30_000
    keys = node_stream_keys(20240901, np.arange(draws, dtype=np.uint64), 1).ravel()
    out = np.sort(floyd_sample(keys, 4, 2), axis=-1)
    packed = out[:, 0] * 4 + out[:, 1]
    counts = np.bincount(packed, minlength=16)
    observed = counts[counts > 0]
    assert len(observed) == 6
    expected = draws / 6
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 20.52


@pytest.mark.parametrize("k", range(1, 17))
def test_network_sorts_every_zero_one_column(k):
    """0-1 principle: a comparator network that sorts all 2^k columns of
    zeros and ones sorts every column of k values."""
    cols = ((np.arange(2**k)[None, :] >> np.arange(k)[:, None]) & 1).astype(np.int8)
    expected = np.sort(cols, axis=0)
    _network_sort(cols)
    assert np.array_equal(cols, expected)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
@pytest.mark.parametrize("k", range(1, _NETWORK_MAX_K + 3))
def test_network_sort_matches_numpy_with_ties(k, dtype, monkeypatch):
    """Random columns drawn from five values, the type's extremes among
    them, so most columns hold ties; a 1000-byte chunk budget puts several
    uneven chunk edges into 1001 columns."""
    monkeypatch.setattr(sampling, "_NETWORK_CHUNK_BYTES", 1000)
    info = np.iinfo(dtype)
    values = np.array([info.min, -1, 0, 1, info.max], dtype=dtype)
    cols = np.random.default_rng(k).choice(values, size=(k, 1001))
    expected = np.sort(cols, axis=0)
    _network_sort(cols)
    assert np.array_equal(cols, expected)


class TestPairingBlock:
    @pytest.mark.parametrize(
        "n, dtype",
        [(10, "int8"), (128, "int8"), (129, "int16"), (32768, "int16"), (32769, "int32")],
    )
    def test_shape_and_dtype(self, n, dtype):
        """Blocks come in the narrowest signed type that holds node id n-1."""
        block = sample_pairing_block(5, 0, 2, n, 3)
        assert block.shape == (2, n, 3)
        assert block.dtype == np.dtype(dtype)

    def test_rows_sorted_distinct_and_never_self(self):
        block = sample_pairing_block(5, 0, 20, 25, 4)
        assert (block[:, :, 1:] > block[:, :, :-1]).all()
        assert block.min() >= 0 and block.max() < 25
        self_ids = np.arange(25)[None, :, None]
        assert not (block == self_ids).any()

    @pytest.mark.parametrize("k", [_NETWORK_MAX_K, _NETWORK_MAX_K + 1])
    def test_rows_ascending_on_both_sides_of_the_network_threshold(self, k):
        """The comparator network sorts up to _NETWORK_MAX_K, numpy above."""
        block = sample_pairing_block(11, 0, 3, 200, k)
        assert (block[:, :, 1:] > block[:, :, :-1]).all()

    def test_deterministic_rerun(self):
        a = sample_pairing_block(99, 0, 10, 50, 2)
        b = sample_pairing_block(99, 0, 10, 50, 2)
        assert np.array_equal(a, b)

    def test_block_partition_invariance(self):
        """Any chunking of the trial range reproduces the same tables."""
        whole = sample_pairing_block(31337, 0, 10, 40, 3)
        parts = np.concatenate(
            [
                sample_pairing_block(31337, 0, 3, 40, 3),
                sample_pairing_block(31337, 3, 4, 40, 3),
                sample_pairing_block(31337, 7, 3, 40, 3),
            ]
        )
        assert np.array_equal(whole, parts)

    def test_different_seeds_differ(self):
        a = sample_pairing_block(1, 0, 5, 40, 3)
        b = sample_pairing_block(2, 0, 5, 40, 3)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n, k", [(40, 3), (129, 5), (1000, 25)])
    def test_rows_are_a_prefix_of_the_full_block(self, n, k):
        """Each (trial, node) pair owns its stream, so drawing the first
        `rows` nodes gives the full block's first `rows` rows."""
        whole = sample_pairing_block(8, 3, 4, n, k)
        for rows in (1, n // 2, n):
            part = sample_pairing_block(8, 3, 4, n, k, rows=rows)
            assert part.dtype == whole.dtype
            assert np.array_equal(part, whole[:, :rows])

    @pytest.mark.parametrize("rows", [0, 41])
    def test_rows_out_of_range_rejected(self, rows):
        with pytest.raises(ValueError, match="rows"):
            sample_pairing_block(8, 0, 2, 40, 3, rows=rows)

    def test_peak_memory_near_the_block(self):
        """The sampler's temporaries are a column or a chunk, not a block:
        a one-table block at n=2e5, K=40 (32 MB of int32) peaks within
        1.15x of its own size."""
        tracemalloc.start()
        try:
            block = sample_pairing_block(3, 0, 1, 200_000, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * block.nbytes

    def test_peak_memory_near_the_block_on_the_network_path(self):
        """K=16 is sorted by the comparator network, whose scratch is one
        chunk: a one-table int32 block at n=2e5 peaks within 1.2x of its
        own size."""
        tracemalloc.start()
        try:
            block = sample_pairing_block(3, 0, 1, 200_000, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.dtype == np.int32
        assert peak <= 1.2 * block.nbytes

    def test_different_trials_differ(self):
        block = sample_pairing_block(1, 0, 2, 40, 3)
        assert not np.array_equal(block[0], block[1])
