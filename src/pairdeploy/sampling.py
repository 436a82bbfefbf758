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
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64_GOLDEN = np.uint64(GOLDEN)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (reference implementation)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _C1
    z = (z ^ (z >> _S27)) * _C2
    return z ^ (z >> _S31)


def fold(a: int, b: int) -> int:
    """Combine two words into one well-mixed key; bijective in b."""
    return mix64(mix64(a) ^ (b & MASK64))


def node_stream_keys(seed: int, trials: np.ndarray, n: int) -> np.ndarray:
    """Stream keys for every (trial, node) pair, shape (len(trials), n).

    Equals fold(fold(seed, trial), node * GOLDEN) elementwise; node indices
    are 0-based.  GOLDEN is odd, so node * GOLDEN is a bijection on uint64
    and distinct nodes get distinct key inputs.
    """
    t = np.asarray(trials, dtype=np.uint64)
    trial_keys = _mix64_vec(np.uint64(mix64(seed)) ^ t)
    node_salt = np.arange(n, dtype=np.uint64) * _U64_GOLDEN
    return _mix64_vec(_mix64_vec(trial_keys)[:, None] ^ node_salt[None, :])


def stream_values(keys: np.ndarray, step: int) -> np.ndarray:
    """step-th word (0-based) of the SplitMix64 stream under each key."""
    return _mix64_vec(keys + np.uint64((step + 1) * GOLDEN & MASK64))


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
    out = np.empty((k,) + keys.shape, dtype=_narrowest_int(m))
    for idx, j in enumerate(range(m - k, m)):
        u = stream_values(keys, idx)
        t = (u % np.uint64(j + 1)).astype(out.dtype)
        if idx:
            dup = (out[:idx] == t).any(axis=0)
            # j itself cannot have been kept yet: earlier draws are <= j-1
            t = np.where(dup, j, t)
        out[idx] = t
    return np.moveaxis(out, 0, -1)


def sample_pairing_block(seed: int, first_trial: int, n_trials: int, n: int, k: int) -> np.ndarray:
    """Pairing selections for a block of trials, shape (n_trials, n, k).

    Entry [t, i, :] is node i's k chosen partners (0-based ids, sorted
    ascending, never i itself) in trial first_trial + t.  Bitwise
    reproducible for any block partitioning of the same trial range.  The
    array is stored selection-major, so each column [:, :, c] is contiguous
    for the column-by-column graph kernel.
    """
    trials = np.arange(first_trial, first_trial + n_trials, dtype=np.uint64)
    keys = node_stream_keys(seed, trials, n)
    cand = floyd_sample(keys, n - 1, k)
    # candidate c of node i names id c if c < i else c+1 (self skipped)
    cand += cand >= np.arange(n, dtype=cand.dtype)[:, None]
    cand.sort(axis=-1)
    return cand.astype(np.int64)
