"""Deterministic sampling of pairing subsets.

All randomness in this package flows through the SplitMix64 finalizer: a
portable 64-bit mixing function (three xor-shift/multiply rounds) whose
output sequence u_l = mix(key + (l+1) * GOLDEN) is the standard SplitMix64
stream seeded at `key`.  Streams are keyed hierarchically with
fold(a, b) = mix(mix(a) ^ b):

    key(seed, trial, node) = fold(fold(seed, trial), node * GOLDEN)

so every (seed, trial, node) triple owns an independent stream and tables
can be generated per trial, per node, in any order or degree of
parallelism, without changing a single draw.  Everything is uint64 with
wraparound, which numpy and the Python-int fallback both define exactly,
so results are platform independent.

Subsets are drawn with Floyd's algorithm: to pick K of {0..m-1}, for
j = m-K .. m-1 draw t uniform on [0, j] and keep t unless it was already
kept, in which case keep j.  This is exactly uniform over K-subsets, needs
O(K) state per node, never rejects, and (unlike swap-tracking approaches)
vectorizes across nodes.  The bounded draw reduces a 64-bit word modulo
(j+1); the resulting bias is at most (j+1)/2^64 < 2^-44 in total variation
for any supported table size, far below statistical detectability.

The draw walks the flat stream keys in chunks of _CHUNK keys.  Per chunk,
each of the K steps adds, mixes and reduces its words in place in two
preallocated uint64 buffers, so every pass stays in cache, then casts the
step into the output and runs the duplicate test there.  The modulo is
computed as u - (u // d) * d, because numpy divides uint64 by a scalar
several times faster than it takes the remainder; for unsigned integers
the two are exactly equal.  Chunking and rows change no draw.

Each block row is sorted ascending.  Up to _NETWORK_MAX_K selections per
node, a comparator network sorts the block: Batcher's odd-even merge sort
network for the next power of two, less every comparator that touches a
padded input (padding acts as +infinity, so those never swap).  Each
comparator is one np.minimum and one np.maximum across every (trial, node)
of a chunk at once, over the block's contiguous selection columns, so the
cost is a few passes per comparator rather than a sort call per row.  Above
that K, numpy's row-by-row sort is faster and is used instead; both give the
same ascending rows.

A block may hold only the first `rows` nodes of each table, the rows a
deployment view reads: node i's row depends on its own stream alone, so
the prefix equals the first `rows` rows of the full block, bit for bit.

Pairing blocks keep the narrowest signed integer type that holds every node
id (int8, int16 or int32, by n); PairingTable widens one table to int64.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "MASK64",
    "GOLDEN",
    "mix64",
    "fold",
    "node_stream_keys",
    "floyd_sample",
    "sample_pairing_block",
]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64_GOLDEN = np.uint64(GOLDEN)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

# keys per chunk of floyd_sample: its two uint64 buffers take 128 KiB each
_CHUNK = 16384

# largest k whose blocks the comparator network sorts; on 4M-entry blocks it
# ties numpy's row sort near k=48 for int16 and between k=25 and 32 for int32
_NETWORK_MAX_K = 32
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


def node_stream_keys(seed: int, trials: np.ndarray, rows: int) -> np.ndarray:
    """Stream keys for the first `rows` nodes of every trial, shape
    (len(trials), rows).

    Equals fold(fold(seed, trial), node * GOLDEN) elementwise; node indices
    are 0-based.  GOLDEN is odd, so node * GOLDEN is a bijection on uint64
    and distinct nodes get distinct key inputs.
    """
    trial_keys = np.asarray(trials, dtype=np.uint64) ^ np.uint64(mix64(seed))
    tmp = np.empty_like(trial_keys)
    _mix64(_mix64(trial_keys, tmp), tmp)
    keys = trial_keys[:, None] ^ (np.arange(rows, dtype=np.uint64) * _U64_GOLDEN)
    return _mix64(keys, np.empty_like(keys))


def _narrowest_int(top: int) -> type:
    """Smallest signed integer type that holds 0..top."""
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def floyd_sample(keys: np.ndarray, m: int, k: int) -> np.ndarray:
    """Draw a uniform k-subset of {0..m-1} per stream key.

    keys may have any shape; the result appends an axis of length k.
    Subsets are returned in Floyd insertion order (not sorted), in the
    narrowest signed integer type that holds m.  Draws are stored
    draw-major, so the duplicate test reduces over contiguous rows; the
    returned array is a view with the draw axis moved last.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    flat = keys.reshape(-1)
    out = np.empty((k, flat.size), dtype=_narrowest_int(m))
    words = np.empty(min(_CHUNK, flat.size), dtype=np.uint64)
    scratch = np.empty_like(words)
    for lo in range(0, flat.size, _CHUNK):
        chunk = flat[lo : lo + _CHUNK]
        u, tmp = words[: chunk.size], scratch[: chunk.size]
        drawn = out[:, lo : lo + chunk.size]
        for idx, j in enumerate(range(m - k, m)):
            # word idx of each key's SplitMix64 stream
            np.add(chunk, np.uint64((idx + 1) * GOLDEN & MASK64), out=u)
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
    return np.moveaxis(out.reshape((k,) + keys.shape), 0, -1)


def _merge_pairs(k: int) -> list[tuple[int, int]]:
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
    return pairs


@cache
def _network(k: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...]]:
    """The k-column sorting network as buffer operations.

    Buffers 0..k-1 hold the columns and buffer k is scratch.  Each step
    (a, b, f) writes min(a, b) into the free buffer f and max(a, b) into b,
    after which a is free; the moves (src, dst) then copy every column back
    into its own buffer.  Built once per k, on first use.
    """
    slot = list(range(k))  # slot[c]: the buffer holding column c
    free = k
    steps = []
    for a, b in _merge_pairs(k):
        steps.append((slot[a], slot[b], free))
        slot[a], free = free, slot[a]  # column a moves to the free buffer
    moves = []
    home = list(range(k))
    while slot != home:
        if free == k:
            # a cycle that misses the scratch: park the column held in the
            # first wrong buffer there
            c = next(c for c in home if slot[c] != c)
            moves.append((c, k))
            slot[slot.index(c)] = k
            free = c
        else:
            src = slot[free]
            moves.append((src, free))
            slot[free] = free
            free = src
    return tuple(steps), tuple(moves)


def _network_sort(cols: np.ndarray) -> None:
    """Sort each column of the (k, N) array cols along axis 0, in place."""
    k, size = cols.shape
    steps, moves = _network(k)
    chunk = max(1, _NETWORK_CHUNK_BYTES // (k * cols.itemsize))
    scratch = np.empty(min(chunk, size), dtype=cols.dtype)
    for lo in range(0, size, chunk):
        bufs = [*cols[:, lo : lo + chunk], scratch[: min(chunk, size - lo)]]
        for a, b, f in steps:
            np.minimum(bufs[a], bufs[b], out=bufs[f])
            np.maximum(bufs[a], bufs[b], out=bufs[b])
        for src, dst in moves:
            bufs[dst][...] = bufs[src]


def sample_pairing_block(
    seed: int, first_trial: int, n_trials: int, n: int, k: int, rows: int | None = None
) -> np.ndarray:
    """Pairing selections of the first `rows` nodes (all n by default) for
    a block of trials, shape (n_trials, rows, k).

    Entry [t, i, :] is node i's k chosen partners (0-based ids below n,
    sorted ascending, never i itself) in trial first_trial + t.  Every
    (trial, node) pair draws from its own stream, so the block is bitwise
    reproducible for any block partitioning of the same trial range, and
    a block of `rows` rows equals the first `rows` rows of the full block.
    The dtype is floyd_sample's: the narrowest signed integer type that
    holds n-1 (int8 up to n=128, int16 up to 32768, int32 up to 2^31).
    The array is stored selection-major, so each column [:, :, c] is
    contiguous for the column-by-column graph kernel.  Rows are sorted by
    the comparator network over those columns up to k = _NETWORK_MAX_K and
    by numpy's sort above it (see the module docstring); the rows are the
    same either way.
    """
    rows = n if rows is None else rows
    if not 1 <= rows <= n:
        raise ValueError(f"need 1 <= rows <= n, got rows={rows}, n={n}")
    trials = np.arange(first_trial, first_trial + n_trials, dtype=np.uint64)
    cand = floyd_sample(node_stream_keys(seed, trials, rows), n - 1, k)
    # candidate c of node i names id c if c < i else c+1 (self skipped);
    # shifted one selection column at a time, so the test's bool array is
    # one column, not the block
    ids = np.arange(rows, dtype=cand.dtype)
    for c in range(k):
        col = cand[:, :, c]
        col += col >= ids
    if k <= _NETWORK_MAX_K:
        _network_sort(np.moveaxis(cand, -1, 0).reshape(k, -1))
    else:
        cand.sort(axis=-1)
    return cand
