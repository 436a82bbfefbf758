"""Deterministic sampling of pairing subsets.

All randomness in this package flows through the SplitMix64 finalizer: a
portable 64-bit mixing function (three xor-shift/multiply rounds) whose
output sequence u_l = mix(key + (l+1) * GOLDEN) is the standard SplitMix64
stream seeded at `key`.  Streams are keyed hierarchically with
fold(a, b) = mix(mix(a) ^ b):

    key(seed, trial, node) = fold(fold(seed, trial), node * GOLDEN)

so every (seed, trial, node) triple owns an independent stream and tables
can be generated per trial, per node, in any order or degree of
parallelism, without changing a single draw.  GOLDEN is odd, so node *
GOLDEN is a bijection on uint64, and fold is bijective in its second word:
the nodes of a trial get distinct keys.  Everything is uint64 with
wraparound, which numpy and the Python-int fallback both define exactly,
so results are platform independent.

Subsets are drawn with Floyd's algorithm: to pick K of {0..m-1}, for
j = m-K .. m-1 draw t uniform on [0, j] and keep t unless it was already
kept, in which case keep j.  This is exactly uniform over K-subsets, needs
O(K) state per node, never rejects, and (unlike swap-tracking approaches)
vectorizes across nodes.  The bounded draw reduces a 64-bit word modulo
(j+1); the resulting bias is at most (j+1)/2^64 < 2^-44 in total variation
for any supported table size, far below statistical detectability.

A block is built by one draw loop, draw_pairing_block, then one sort
pass, which sample_pairing_block adds; a caller that ignores the order
of a row (the ring-size census) takes the drawn block as it is.  The
loop walks the block in chunks of about _CHUNK (trial, node) pairs:
whole trials, or a span of one trial's nodes when a trial has more rows.
Per chunk it XORs the trial keys (mixed once per trial) with node *
GOLDEN and mixes them into stream keys; each of the K Floyd steps then
adds, mixes and reduces its words in place in preallocated uint64
buffers, so every pass stays in cache, and casts them into the output,
where the duplicate test runs; last, each candidate is shifted past the
node's own id.  No array of keys or words outgrows a chunk.  The modulo
is computed as u - (u // d) * d, because numpy divides uint64 by a
scalar several times faster than it takes the remainder; for unsigned
integers the two are exactly equal.  Chunking and rows change no draw.

The sort pass then orders each row ascending.  Every int8 block, and
int16 and int32 rows up to _NETWORK_MAX_ROW_BYTES bytes (k = 48 and 24
selections), is sorted by a comparator network: Batcher's odd-even merge
sort network for the next power of two, less every comparator that
touches a padded input (padding acts as +infinity, so those never swap).
Each comparator is one np.minimum and one np.maximum across every (trial,
node) of a chunk at once, over the block's contiguous selection columns,
so the cost is two passes per comparator rather than a sort call per row.
Longer int16 and int32 rows take numpy's row-by-row sort, the faster of
the two there; both give the same ascending rows.

A block may hold only the nodes first_row..rows-1 of each table: the
first `rows`, the rows a deployment view reads, or one band of them, the
rows between two view sizes.  Node i's row depends on its own stream
alone, so the block equals those rows of the full block, bit for bit.
Likewise a block may hold any listed trials (`trial_ids`), each table
equal to its table in a contiguous block, and only the first `steps`
Floyd steps of each row: Floyd only adds to its set, so those partners
are some of the row's k, the same draws as the whole block's first
`steps` columns before the sort.  steps = k is the whole block.

Pairing blocks keep the narrowest signed integer type that holds every node
id (int8, int16 or int32, by n); PairingTable widens one table to int64.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["MASK64", "GOLDEN", "mix64", "fold", "draw_pairing_block", "sample_pairing_block"]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64_GOLDEN = np.uint64(GOLDEN)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

# (trial, node) pairs per chunk of the draw loop: its three uint64 buffers
# take 128 KiB each.  The census draws blocks of one chunk of whole trials
_CHUNK = 16384

# largest int16 or int32 row, k * itemsize bytes, that the comparator network
# sorts; on 4M-entry blocks it ties numpy's row sort near 100-112 bytes for
# those types, and beats it at every k for int8, whose rows it always sorts
_NETWORK_MAX_ROW_BYTES = 96
# block bytes the network sorts at a time, so a chunk's k columns stay in cache
_NETWORK_CHUNK_BYTES = 1 << 20


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (reference implementation)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied to z in place; tmp is scratch of z's shape."""
    for shift, mult in ((_S30, _C1), (_S27, _C2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def fold(a: int, b: int) -> int:
    """Combine two words into one well-mixed key; bijective in b."""
    return mix64(mix64(a) ^ (b & MASK64))


def _narrowest_int(top: int) -> type:
    """Smallest signed integer type that holds 0..top."""
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


@cache
def _merge_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort network
    on the smallest power of two >= k, keeping those with j < k."""
    size = 1 << (k - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        q = p
        while q:
            for lo in range(q % p, size - q, 2 * q):
                for i in range(lo, min(lo + q, size - q)):
                    if i // (2 * p) == (i + q) // (2 * p) and i + q < k:
                        pairs.append((i, i + q))
            q //= 2
        p *= 2
    return tuple(pairs)


def _network_sort(cols: np.ndarray) -> None:
    """Sort each column of the (k, N) array cols along axis 0, in place.

    Each chunk of columns is sorted in k + 1 buffers: its k rows of cols
    and one scratch, buffer k.  A comparator (a, b) writes min into the
    free buffer and max over b's buffer, two passes, so row a moves to the
    free buffer and frees its old one; at[c] names the buffer holding row
    c.  Last, every row is copied home: the free buffer takes its own row,
    whose old buffer is then free, until the scratch is free again; a cycle
    of rows that misses the scratch is opened by parking one row there.
    """
    k, size = cols.shape
    chunk = max(1, _NETWORK_CHUNK_BYTES // (k * cols.itemsize))
    scratch = np.empty(min(chunk, size), dtype=cols.dtype)
    for lo in range(0, size, chunk):
        bufs = [*cols[:, lo : lo + chunk], scratch[: min(chunk, size - lo)]]
        at = list(range(k))
        free = k
        for a, b in _merge_pairs(k):
            x, y = bufs[at[a]], bufs[at[b]]
            np.minimum(x, y, out=bufs[free])
            np.maximum(x, y, out=y)
            at[a], free = free, at[a]
        while True:
            if free == k:
                away = next((c for c in range(k) if at[c] != c), None)
                if away is None:
                    break
                # buffer `away` holds another row: park it in the scratch
                bufs[k][...] = bufs[away]
                at[at.index(away)], free = k, away
            src = at[free]
            bufs[free][...] = bufs[src]
            at[free], free = free, src


def draw_pairing_block(
    seed: int, first_trial: int, n_trials: int, n: int, k: int, rows: int | None = None,
    steps: int | None = None, trial_ids: np.ndarray | None = None, first_row: int = 0,
) -> np.ndarray:
    """The block sample_pairing_block returns, with each row left in
    Floyd's draw order instead of sorted: shape (n_trials, rows -
    first_row, steps), stored selection-major, the same partners per row.
    For a caller that ignores the order of a row, such as a ring-size count.

    steps (1..k, k by default) cuts each row to its first Floyd steps;
    trial_ids, given, lists the block's n_trials trials, first_trial
    first, in place of first_trial..first_trial+n_trials-1; first_row
    (0..rows-1) drops the rows of nodes below it.
    """
    rows = n if rows is None else rows
    if not 1 <= rows <= n:
        raise ValueError(f"need 1 <= rows <= n, got rows={rows}, n={n}")
    if not 0 <= first_row < rows:
        raise ValueError(f"need 0 <= first_row < rows, got first_row={first_row}, rows={rows}")
    m = n - 1  # candidates per node: every id but its own
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    steps = k if steps is None else steps
    if not 1 <= steps <= k:
        raise ValueError(f"need 1 <= steps <= k, got steps={steps}, k={k}")
    if trial_ids is None:
        trial_keys = np.arange(first_trial, first_trial + n_trials, dtype=np.uint64)
    else:
        if len(trial_ids) != n_trials or (n_trials and trial_ids[0] != first_trial):
            raise ValueError(f"trial_ids must hold n_trials={n_trials} ids from first_trial={first_trial} on")
        trial_keys = np.array(trial_ids, dtype=np.uint64)
    # mix(fold(seed, trial)), so that key = mix(trial_key ^ node * GOLDEN)
    trial_keys ^= np.uint64(mix64(seed))
    scratch = np.empty_like(trial_keys)
    _mix64(_mix64(trial_keys, scratch), scratch)
    out = np.empty((steps, n_trials, rows - first_row), dtype=_narrowest_int(m))
    span = min(rows - first_row, _CHUNK)  # nodes per chunk
    per = max(1, min(n_trials, _CHUNK // (rows - first_row)))  # trials per chunk
    bufs = np.empty((3, per * span), dtype=np.uint64)
    for lo in range(first_row, rows, span):
        hi = min(lo + span, rows)
        for first in range(0, n_trials, per):
            drawn = out[:, first : first + per, lo - first_row : hi - first_row]
            keys, u, tmp = (b[: drawn[0].size].reshape(drawn.shape[1:]) for b in bufs)
            # each (trial, node) pair's stream key, mix(trial_key ^ node * GOLDEN)
            np.bitwise_xor(
                trial_keys[first : first + per, None],
                np.arange(lo, hi, dtype=np.uint64) * _U64_GOLDEN,
                out=keys,
            )
            _mix64(keys, tmp)
            for idx, j in enumerate(range(m - k, m - k + steps)):
                # word idx of each key's SplitMix64 stream
                np.add(keys, np.uint64((idx + 1) * GOLDEN & MASK64), out=u)
                _mix64(u, tmp)
                # u % (j+1), as u - (u // d) * d (see the module docstring)
                d = np.uint64(j + 1)
                np.floor_divide(u, d, out=tmp)
                np.multiply(tmp, d, out=tmp)
                np.subtract(u, tmp, out=u)
                t = drawn[idx]
                t[...] = u
                if idx:
                    # j itself cannot have been kept yet: earlier draws are <= j-1
                    np.copyto(t, j, where=(drawn[:idx] == t).any(axis=0))
            # candidate c of node i names id c if c < i else c+1 (self skipped)
            drawn += drawn >= np.arange(lo, hi, dtype=out.dtype)
    return np.moveaxis(out, 0, -1)


def sample_pairing_block(
    seed: int, first_trial: int, n_trials: int, n: int, k: int, rows: int | None = None,
    steps: int | None = None, trial_ids: np.ndarray | None = None, first_row: int = 0,
) -> np.ndarray:
    """Pairing selections of the first `rows` nodes (all n by default) for
    a block of trials, shape (n_trials, rows, k), or (n_trials, rows,
    steps) for the first `steps` Floyd draws of each row alone, a subset of
    its k partners; trial_ids, given, lists the trials, and first_row
    drops the rows below it, leaving rows first_row..rows-1 (see
    draw_pairing_block).

    Entry [t, i, :] is node i's k chosen partners (0-based ids below n,
    sorted ascending, never i itself) in trial first_trial + t.  Every
    (trial, node) pair draws from its own stream, so the block is bitwise
    reproducible for any block partitioning of the same trial range, and
    a block of rows first_row..rows-1 equals those rows of the full block.
    The dtype is the narrowest signed integer type that holds n-1 (int8
    up to n=128, int16 up to 32768, int32 up to 2^31).  The array is stored
    selection-major, so each column [:, :, c] is contiguous for the
    column-by-column graph kernel.  It is draw_pairing_block's block with
    its rows sorted, by the comparator network over those columns for
    int8 blocks and up to rows of _NETWORK_MAX_ROW_BYTES bytes, and by
    numpy's sort above (see the module docstring); the rows are the same
    either way.
    """
    block = draw_pairing_block(seed, first_trial, n_trials, n, k, rows, steps, trial_ids, first_row)
    width = block.shape[-1]
    if block.itemsize == 1 or width * block.itemsize <= _NETWORK_MAX_ROW_BYTES:
        _network_sort(np.moveaxis(block, -1, 0).reshape(width, -1))
    else:
        block.sort(axis=-1)
    return block
