"""Repeat-trial experiments: deployment runs and key-ring censuses, as counts.

One ExperimentPlan describes every deployment run, and run_sweep answers
all its questions from one evaluation pass: per k, the trials connected and
the trials with no isolated node at each fraction, and the trials connected
at every fraction (the phased-deployment question).  Runs are coupled: one
table is generated per (k, trial) and every deployment fraction is
evaluated as a view of that same table, matching how a gradually deployed
network actually grows.  Table seeds derive from (base_seed, k, trial)
through the sampling module's stream keying, so any execution order,
chunking, or worker count reproduces identical results.  Deployment runs
and censuses draw their tables through one block loop, and fold each block
into counts before drawing the next.  Each caller gives the loop its draw
and block size: deployment runs draw sorted blocks under _BLOCK_BUDGET, for
the graph kernel; the census, whose ring sizes ignore row order, draws
unsorted blocks of one sampler draw chunk, small enough to bin while they
are in cache.  This module returns counts; the command line turns them into
estimates with wilson_interval, and into census summaries.

Default trial counts: 200 for sweeps, 1000 for censuses.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sampling
from .graphs import connected_at
from .scheme import SchemeParams, phase_size, ring_sizes

__all__ = [
    "SWEEP_TRIALS_DEFAULT",
    "CENSUS_TRIALS_DEFAULT",
    "ExperimentPlan",
    "wilson_interval",
    "evaluate_deployments",
    "run_sweep",
    "run_keyring_census",
]

SWEEP_TRIALS_DEFAULT = 200
CENSUS_TRIALS_DEFAULT = 1000

# the deployment runs' tables per block are capped around this many entries
# of the sampler's type (int16 at n=1000, so a block there is about 8 MB);
# the census draws smaller blocks, one sampler chunk each.  Loops over blocks
# drop each block before drawing the next: holding the last one through the
# next draw raises peak RSS by about a block (phased at n=2000, K=37: 45.0 to
# 53.5 MB; a sweep at n=1e6, K=40: 239 to 395 MB).
_BLOCK_BUDGET = 4_000_000

_Z95 = 1.96  # two-sided 95% normal quantile of the Wilson intervals


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + _Z95 * _Z95 / trials
    center = (p + _Z95 * _Z95 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + _Z95 * _Z95 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentPlan:
    """A deployment run: all (k, gamma) cells share n, trials, and seeding;
    the gammas, strictly increasing in (0, 1], are its schedule."""

    n: int
    k_values: tuple[int, ...]
    gammas: tuple[float, ...]
    trials: int = SWEEP_TRIALS_DEFAULT
    base_seed: int = 0
    workers: int | None = None

    def __post_init__(self) -> None:
        ks = tuple(int(k) for k in self.k_values)
        if not ks:
            raise ValueError("k_values must be nonempty")
        if len(set(ks)) != len(ks):
            raise ValueError(f"k_values must not repeat, got {ks}")
        _check_run(self.n, ks, self.trials, self.base_seed)
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        gs = tuple(float(g) for g in self.gammas)
        if not gs:
            raise ValueError("schedule needs at least one deployment fraction")
        if any(a >= b for a, b in zip(gs, gs[1:])):
            raise ValueError(f"deployment fractions must be strictly increasing, got {gs}")
        for g in gs:
            phase_size(self.n, g)  # validates 0 < gamma <= 1 and floor(gamma*n) >= 1
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "gammas", gs)


def _check_run(n: int, ks: tuple[int, ...], trials: int, base_seed: int) -> None:
    """The checks every run makes before it allocates."""
    for k in ks:
        SchemeParams(n, k)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 <= base_seed <= sampling.MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {base_seed}")


def _blocks(
    draw: Callable[..., np.ndarray], per: int, n: int, k: int, trials: int, base_seed: int, rows: int
) -> Iterator[np.ndarray]:
    """The (base_seed, k) tables of trials 0..trials-1, first `rows` nodes
    each, in order, drawn lazily by draw (a sampling block function) in
    blocks of `per` trials, the last one shorter.

    (n, k), trials and the seed are checked at the call, before the caller
    allocates; block starts are stepped, not listed, and no yielded block is
    held here, so a caller that drops its own reference frees it before the
    next draw.
    """
    _check_run(n, (k,), trials, base_seed)
    seed = sampling.fold(base_seed, k)
    return (draw(seed, start, min(per, trials - start), n, k, rows) for start in range(0, trials, per))


def evaluate_deployments(plan: ExperimentPlan, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Count the outcomes of every gamma view of the plan's tables for k.

    The one evaluation pass behind run_sweep: each block of tables is
    drawn with the rows its largest view reads, answered for every view by
    one connected_at call, and added to the counts before the next is
    drawn; (n, k), trials and the seed are checked before the first.
    Returns (connected, no_isolated, joint): the trials connected and with
    no isolated node per fraction, as int64 arrays in the order of
    plan.gammas, and the trials connected at every fraction.
    """
    ms = [phase_size(plan.n, g) for g in plan.gammas]
    connected, no_isolated = np.zeros((2, len(ms)), dtype=np.int64)
    joint = 0
    per = max(1, _BLOCK_BUDGET // (ms[-1] * max(k, 1)))  # k is checked by _blocks
    for block in _blocks(sampling.sample_pairing_block, per, plan.n, k, plan.trials, plan.base_seed, ms[-1]):
        conn, iso = connected_at(block, ms)
        del block
        connected += conn.sum(axis=1)
        no_isolated += (iso == 0).sum(axis=1)
        joint += int(conn.all(axis=0).sum())
    return connected, no_isolated, joint


def _pool_size(workers: int | None, cells: int) -> int:
    """Worker processes to start: at most one per cell and per CPU."""
    return max(1, min(workers or 1, cells, os.cpu_count() or 1))


def run_sweep(plan: ExperimentPlan) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
    """evaluate_deployments(plan, k) for every k of the plan, in the order
    of plan.k_values, each k in its own worker process when plan.workers
    allows."""
    evaluate = partial(evaluate_deployments, plan)
    size = _pool_size(plan.workers, len(plan.k_values))
    if size > 1:
        # imported here, so a run without a pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            return dict(zip(plan.k_values, pool.map(evaluate, plan.k_values)))
    return dict(zip(plan.k_values, map(evaluate, plan.k_values)))


def run_keyring_census(
    n: int, k: int, trials: int = CENSUS_TRIALS_DEFAULT, base_seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Count all trials * n ring sizes and the per-trial largest rings.

    Returns (histogram, max_histogram), int64 arrays indexed by ring size:
    the first sums to trials * n, the second to trials.  A ring holds
    k..k+n-1 keys.

    Ring sizes ignore the order of a row, so the tables are drawn unsorted,
    in blocks of one sampler draw chunk (whole trials, at least one), which
    ring_sizes bins while they are still in cache.
    """
    per = max(1, sampling._CHUNK // max(n, 1))  # n is checked by _blocks
    blocks = _blocks(sampling.draw_pairing_block, per, n, k, trials, base_seed, n)
    hist, max_hist = np.zeros((2, n + k), dtype=np.int64)
    for block in blocks:
        sizes = ring_sizes(block)
        hist += np.bincount(sizes.ravel(), minlength=n + k)
        max_hist += np.bincount(sizes.max(axis=1), minlength=n + k)
        del block
    return hist, max_hist
