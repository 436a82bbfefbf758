"""Stream keying, Floyd subset sampling, the row sort, and block reproducibility."""

import tracemalloc

import numpy as np
import pytest

from pairdeploy import sampling
from pairdeploy.sampling import (
    GOLDEN,
    MASK64,
    _CHUNK,
    _NETWORK_MAX_ROW_BYTES,
    _network_sort,
    draw_pairing_block,
    fold,
    mix64,
    sample_pairing_block,
)
from test_golden import BLOCK_DIGESTS, digest


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


def stream_keys_oracle(seed, first_trial, n_trials, rows):
    """Stream keys of the first `rows` nodes of each trial, shape
    (n_trials, rows), by the scalar fold chain."""
    keys = [
        [fold(fold(seed, t), (i * GOLDEN) & MASK64) for i in range(rows)]
        for t in range(first_trial, first_trial + n_trials)
    ]
    return np.array(keys, dtype=np.uint64).reshape(n_trials, rows)


def draw_oracle(seed, first_trial, n_trials, n, k, rows):
    """draw_pairing_block's values, int64: the scalar keys, Floyd over the
    whole key array, and the shift of each candidate past the node's own id."""
    cand = floyd_oracle(stream_keys_oracle(seed, first_trial, n_trials, rows), n - 1, k)
    cand += cand >= np.arange(rows)[:, None]
    return cand


def block_oracle(seed, first_trial, n_trials, n, k, rows):
    """sample_pairing_block's values: draw_oracle's rows, by numpy's sort."""
    return np.sort(draw_oracle(seed, first_trial, n_trials, n, k, rows), axis=-1)


def row_bytes_bound(dtype):
    """Largest k whose rows of this type the comparator network sorts."""
    return _NETWORK_MAX_ROW_BYTES // np.dtype(dtype).itemsize


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


def test_distinct_trials_and_nodes_get_distinct_keys():
    keys = stream_keys_oracle(42, 0, 50, 40)
    assert len(set(keys.ravel().tolist())) == keys.size


def test_floyd_sample_full_subset_is_forced():
    """k = n-1 leaves each node no choice: every id but its own."""
    block = sample_pairing_block(0, 0, 10, 5, 4)
    expected = [[j for j in range(5) if j != i] for i in range(5)]
    assert np.array_equal(block, np.broadcast_to(expected, (10, 5, 4)))


def test_floyd_sample_rejects_bad_k():
    for k in (0, 6):
        with pytest.raises(ValueError, match="1 <= k <= n-1"):
            sample_pairing_block(0, 0, 1, 6, k)


@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7])
@pytest.mark.parametrize(
    "n, k, dtype",
    [(10, 4, np.int8), (6, 5, np.int8), (1001, 7, np.int16), (40_001, 3, np.int32)],
    ids=["int8", "int8_full", "int16", "int32"],
)
def test_floyd_sample_chunks_match_whole_array_oracle(count, n, k, dtype):
    """Chunk edges change no draw: the block equals the oracle bit for bit.
    It holds `count` rows where n allows, just below, at and above one and
    two chunks, and otherwise all n rows over enough trials to draw
    `count` of them, so the last group of trials in a chunk is uneven."""
    rows = min(count, n)
    trials = count // rows + 1
    got = sample_pairing_block(count, 3, trials, n, k, rows)
    assert got.shape == (trials, rows, k) and got.dtype == dtype
    assert np.array_equal(got, block_oracle(count, 3, trials, n, k, rows))


@pytest.mark.parametrize(
    "n, k",
    [
        (100, 3),
        (128, row_bytes_bound(np.int8)),
        (128, row_bytes_bound(np.int8) + 1),
        (200, row_bytes_bound(np.int16)),
        (200, row_bytes_bound(np.int16) + 1),
        (40_000, row_bytes_bound(np.int32)),
        (40_000, row_bytes_bound(np.int32) + 1),
    ],
)
def test_pairing_block_matches_oracle_across_small_chunks(n, k, monkeypatch):
    """With seven (trial, node) pairs per chunk, rows below, at and above
    one chunk and 2*7+7 rows split into node spans, and 1 to 10 trials
    leave uneven last groups; k sits on both sides of the network's bound
    for int8, int16 and int32 blocks."""
    monkeypatch.setattr(sampling, "_CHUNK", 7)
    for rows in (1, 2, 3, 6, 7, 8, 21):
        for trials in (1, 3, 10):
            got = sample_pairing_block(n + rows, 5, trials, n, k, rows)
            assert np.array_equal(got, block_oracle(n + rows, 5, trials, n, k, rows))


@pytest.mark.parametrize(
    "n, k, rows",
    [
        (100, 3, 100),
        (128, 112, 128),
        (129, 5, 7),
        (1000, 24, 1000),
        (1000, row_bytes_bound(np.int16) + 1, 300),
        (40_000, 3, 40_000),
        (40_000, row_bytes_bound(np.int32) + 1, 2000),
    ],
)
def test_draw_pairing_block_is_the_block_before_its_sort(n, k, rows):
    """draw_pairing_block leaves each row in Floyd's draw order, and sorting
    its rows gives sample_pairing_block's block, for int8, int16 and int32
    blocks on both sort paths, at rows = n and rows < n.  Both blocks are
    stored selection-major."""
    drawn = draw_pairing_block(n + k, 2, 3, n, k, rows)
    block = sample_pairing_block(n + k, 2, 3, n, k, rows)
    assert drawn.shape == block.shape == (3, rows, k)
    assert drawn.dtype == block.dtype and drawn.strides == block.strides
    assert drawn.strides[2] == drawn.itemsize * 3 * rows
    assert np.array_equal(np.sort(drawn, axis=-1), block)
    assert not np.array_equal(drawn, block)


@pytest.mark.parametrize("n, k, rows", [(10, 4, 10), (6, 5, 6), (1001, 7, 30), (40_001, 3, 20)])
def test_draw_pairing_block_matches_draw_order_oracle(n, k, rows, monkeypatch):
    """The unsorted rows are Floyd's draws in order, shifted past the
    node's own id, bit for bit, also over chunks of seven pairs."""
    expected = draw_oracle(n, 4, 5, n, k, rows)
    assert np.array_equal(draw_pairing_block(n, 4, 5, n, k, rows), expected)
    monkeypatch.setattr(sampling, "_CHUNK", 7)
    assert np.array_equal(draw_pairing_block(n, 4, 5, n, k, rows), expected)


def test_floyd_sample_uniform_over_all_subsets():
    """Chi-square goodness of fit over the 6 partner pairs node 0 can pick
    from the other 4 nodes of n = 5.

    30000 draws against the 0.001-level critical value 20.52 for 5 degrees
    of freedom; deterministic under the fixed seed.
    """
    draws = 30_000
    out = sample_pairing_block(20240901, 0, draws, 5, 2, rows=1)[:, 0].astype(np.int64)
    packed = out[:, 0] * 5 + out[:, 1]
    counts = np.bincount(packed, minlength=25)
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


@pytest.mark.parametrize(
    "k, dtype",
    [
        (k, dtype)
        for dtype in (np.int8, np.int16, np.int32)
        for k in range(1, 128 if dtype is np.int8 else max(35, row_bytes_bound(dtype) + 2))
    ],
    ids=lambda v: np.dtype(v).name if isinstance(v, type) else str(v),
)
def test_network_sort_matches_numpy_with_ties(k, dtype, monkeypatch):
    """Random columns drawn from five values, the type's extremes among
    them, so most columns hold ties; a budget of 97 columns a chunk puts
    ten chunk edges and a 31-column last chunk into 1001 columns."""
    monkeypatch.setattr(sampling, "_NETWORK_CHUNK_BYTES", 97 * k * np.dtype(dtype).itemsize)
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

    @pytest.mark.parametrize("k", [row_bytes_bound(np.int16), row_bytes_bound(np.int16) + 1])
    def test_rows_ascending_on_both_sides_of_the_network_threshold(self, k):
        """The comparator network sorts rows up to _NETWORK_MAX_ROW_BYTES
        bytes, numpy longer ones."""
        block = sample_pairing_block(11, 0, 3, 200, k)
        assert (block[:, :, 1:] > block[:, :, :-1]).all()

    def test_every_int8_block_is_sorted_by_the_network(self, monkeypatch):
        """Numpy's row sort never beats the network on int8, so int8 rows
        longer than _NETWORK_MAX_ROW_BYTES bytes are sorted by it too."""
        calls = []

        def counted(cols):
            calls.append(cols.shape)
            _network_sort(cols)

        monkeypatch.setattr(sampling, "_network_sort", counted)
        block = sample_pairing_block(11, 0, 3, 128, 112)
        assert 112 > _NETWORK_MAX_ROW_BYTES
        assert calls == [(112, 3 * 128)]
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

    def test_peak_memory_near_the_block_at_small_k(self):
        """No array of stream keys spans the block: a one-table int32 block
        at n=2e5, K=2 (1.6 MB) peaks within 1.6x of its own size, the draw
        loop's three 128 KiB buffers and the network's scratch included."""
        tracemalloc.start()
        try:
            block = sample_pairing_block(3, 0, 1, 200_000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.dtype == np.int32
        assert peak <= 1.6 * block.nbytes

    def test_different_trials_differ(self):
        block = sample_pairing_block(1, 0, 2, 40, 3)
        assert not np.array_equal(block[0], block[1])


PREFIX_SHAPES = [(10, 4), (128, 96), (200, 33), (1000, 37), (40_000, 25)]


@pytest.mark.parametrize("n, k", PREFIX_SHAPES, ids=lambda v: str(v))
def test_prefix_rows_are_subsets_of_the_whole_rows(n, k):
    """A block of the first `steps` Floyd steps holds each row's first
    `steps` draws, in draw order, so every sorted prefix row is a subset of
    the same sorted row at steps = k: for int8, int16 and int32 blocks, on
    both sort paths."""
    rows = min(n, 300)
    drawn = draw_pairing_block(n, 3, 4, n, k, rows)
    whole = sample_pairing_block(n, 3, 4, n, k, rows)
    for steps in sorted({1, 2, k // 2, k - 1, k} - {0}):
        assert np.array_equal(draw_pairing_block(n, 3, 4, n, k, rows, steps), drawn[..., :steps])
        prefix = sample_pairing_block(n, 3, 4, n, k, rows, steps)
        assert prefix.shape == (4, rows, steps) and prefix.dtype == whole.dtype
        assert np.array_equal(np.sort(drawn[..., :steps], axis=-1), prefix)
        for p, w in zip(prefix.reshape(-1, steps), whole.reshape(-1, k)):
            assert np.isin(p, w).all()


def test_all_steps_is_the_default_block():
    """steps = k draws every pinned block bit for bit (the pins are the
    golden digests, unedited), and steps = None is the same block."""
    for spec, expected in BLOCK_DIGESTS.items():
        block = sample_pairing_block(*spec, None, spec[4])
        assert digest(block.astype(np.int64).tobytes()) == expected
        assert np.array_equal(draw_pairing_block(*spec, None, spec[4]), draw_pairing_block(*spec))


@pytest.mark.parametrize("n, k", PREFIX_SHAPES, ids=lambda v: str(v))
def test_trial_id_block_equals_rows_of_the_contiguous_block(n, k, monkeypatch):
    """A block of listed trial ids holds the matching tables of the
    contiguous block, whole or as a prefix, sorted or in draw order, also
    when the draw loop's chunks split its trials and rows."""
    rows = min(n, 50)
    ids = np.array([5, 6, 9, 17, 18, 30])
    for chunk in (_CHUNK, 7):
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        for steps in (2, k):
            for draw in (draw_pairing_block, sample_pairing_block):
                contiguous = draw(n, 5, 26, n, k, rows, steps)
                picked = draw(n, 5, len(ids), n, k, rows, steps, ids)
                assert np.array_equal(picked, contiguous[ids - 5])


def test_steps_and_trial_ids_outside_their_range_raise():
    for steps in (0, -1, 5):
        with pytest.raises(ValueError, match="1 <= steps <= k"):
            sample_pairing_block(0, 0, 1, 10, 4, None, steps)
    for first, count, ids in ((0, 2, [0, 1, 2]), (1, 2, [0, 1]), (0, 0, [0])):
        with pytest.raises(ValueError, match="trial_ids"):
            draw_pairing_block(0, first, count, 10, 4, None, None, np.array(ids))


# an int8 block; int16 and int32 blocks whose k-step rows numpy sorts and
# whose two-step rows the network sorts
BAND_SHAPES = [(128, 96), (200, 60), (40_000, 30)]


@pytest.mark.parametrize("n, k", BAND_SHAPES, ids=lambda v: str(v))
def test_band_block_equals_its_rows_of_the_full_block(n, k, monkeypatch):
    """A block of rows first_row..rows-1 holds those rows of the full
    block, bit for bit: sorted or in draw order, whole or a prefix, of
    contiguous or listed trials, also when the draw loop's chunks split
    its trials and rows."""
    rows = min(n, 120)
    ids = np.array([3, 4, 9])
    for chunk in (_CHUNK, 50):
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        for steps in (2, k):
            for draw in (draw_pairing_block, sample_pairing_block):
                full = draw(n, 3, 7, n, k, rows, steps)
                for lo, hi in ((0, rows), (0, 1), (1, rows), (rows // 3, rows // 2), (rows - 1, rows)):
                    band = draw(n, 3, 7, n, k, hi, steps, None, lo)
                    assert band.dtype == full.dtype and np.array_equal(band, full[:, lo:hi])
                    picked = draw(n, 3, len(ids), n, k, hi, steps, ids, lo)
                    assert np.array_equal(picked, full[ids - 3, lo:hi])


def test_two_bands_rebuild_every_pinned_block():
    """first_row = 0 draws every pinned block bit for bit (the pins are the
    golden digests, unedited), and so do its two halves side by side."""
    for spec, expected in BLOCK_DIGESTS.items():
        n, cut = spec[3], spec[3] // 2
        block = sample_pairing_block(*spec, None, None, None, 0)
        assert digest(block.astype(np.int64).tobytes()) == expected
        halves = [sample_pairing_block(*spec, cut), sample_pairing_block(*spec, n, None, None, cut)]
        assert digest(np.concatenate(halves, axis=1).astype(np.int64).tobytes()) == expected


def test_row_ranges_outside_the_block_raise():
    for rows, first_row in ((10, 10), (10, 11), (5, -1), (4, 6)):
        for draw in (draw_pairing_block, sample_pairing_block):
            with pytest.raises(ValueError, match="first_row"):
                draw(0, 0, 1, 10, 4, rows, None, None, first_row)
