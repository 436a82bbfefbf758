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

A run is split into units, each a contiguous trial range of one k that
walks its own blocks, and its counts are the sums of the units' integer
counts, so they do not depend on the split.  The units run in this process
or over a pool of worker processes of the width the caller asks for
(default_workers is the command line's default; the library runs serially
unless asked).  A run within one serial block, trials * rows * (sum of its
k) <= _BLOCK_BUDGET, is one unit and starts no pool.  A wider run splits
each k into one trial range per worker, so it has O(workers * k values)
units whatever its trials.  Its blocks shrink by the width, down to one
trial, and no pool is wider than the budget holds one of the run's widest
tables per worker, so the blocks in flight across the pool stay within the
budget, as a serial run's do; a run whose one table passes the budget is
serial.  Each worker adds its own interpreter state beyond its blocks.

Default trial counts: 200 for sweeps, 1000 for censuses.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import islice

import numpy as np

from . import sampling
from .graphs import connected_at
from .scheme import SchemeParams, phase_size, ring_sizes

__all__ = [
    "SWEEP_TRIALS_DEFAULT",
    "CENSUS_TRIALS_DEFAULT",
    "ExperimentPlan",
    "default_workers",
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

# the command line's default pool is no wider than this, the widest at which
# the pool's speed and memory were measured (2 vCPUs); --workers asks for more
_DEFAULT_WORKERS_MAX = 2

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
    the gammas, strictly increasing in (0, 1], are its schedule.  workers
    is the widest process pool the run may use; None or 1 runs it in this
    process."""

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
        _check_run(self.n, ks, self.trials, self.base_seed, self.workers)
        gs = tuple(float(g) for g in self.gammas)
        if not gs:
            raise ValueError("schedule needs at least one deployment fraction")
        if any(a >= b for a, b in zip(gs, gs[1:])):
            raise ValueError(f"deployment fractions must be strictly increasing, got {gs}")
        for g in gs:
            phase_size(self.n, g)  # validates 0 < gamma <= 1 and floor(gamma*n) >= 1
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "gammas", gs)


def _check_run(n: int, ks: tuple[int, ...], trials: int, base_seed: int, workers: int | None = None) -> None:
    """The checks every run makes before it allocates or starts a process."""
    for k in ks:
        SchemeParams(n, k)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 <= base_seed <= sampling.MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {base_seed}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _blocks(
    draw: Callable[..., np.ndarray],
    per: int,
    n: int,
    k: int,
    trials: int,
    base_seed: int,
    rows: int,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[np.ndarray]:
    """The (base_seed, k) tables of trials start..stop-1 (by default all
    `trials` of the run), first `rows` nodes each, in order, drawn lazily by
    draw (a sampling block function) in blocks of `per` trials, the last one
    shorter.

    (n, k), trials and the seed are checked at the call, before the caller
    allocates; block starts are stepped, not listed, and no yielded block is
    held here, so a caller that drops its own reference frees it before the
    next draw.
    """
    _check_run(n, (k,), trials, base_seed)
    seed = sampling.fold(base_seed, k)
    stop = trials if stop is None else stop
    return (draw(seed, first, min(per, stop - first), n, k, rows) for first in range(start, stop, per))


def evaluate_deployments(plan: ExperimentPlan, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Count the outcomes of every gamma view of the plan's tables for k,
    over a pool of up to plan.workers processes (see the module docstring).

    Returns (connected, no_isolated, joint): the trials connected and with
    no isolated node per fraction, as int64 arrays in the order of
    plan.gammas, and the trials connected at every fraction.
    """
    return run_sweep(replace(plan, k_values=(k,)))[k]


def _count_deployments(
    plan: ExperimentPlan, k: int, start: int, stop: int, width: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """evaluate_deployments over trials start..stop-1 alone, one unit of a
    run of `width` workers.

    The one evaluation pass: each block of tables is drawn with the rows
    its largest view reads, answered for every view by one connected_at
    call, and added to the counts before the next is drawn.  Blocks take
    1/width of the budget, down to one trial.
    """
    ms = [phase_size(plan.n, g) for g in plan.gammas]
    connected, no_isolated = np.zeros((2, len(ms)), dtype=np.int64)
    joint = 0
    per = max(1, _BLOCK_BUDGET // (ms[-1] * k * width))
    draw = sampling.sample_pairing_block
    for block in _blocks(draw, per, plan.n, k, plan.trials, plan.base_seed, ms[-1], start, stop):
        conn, iso = connected_at(block, ms)
        del block
        connected += conn.sum(axis=1)
        no_isolated += (iso == 0).sum(axis=1)
        joint += int(conn.all(axis=0).sum())
    return connected, no_isolated, joint


def default_workers() -> int:
    """The pool width of a command-line run that names none: one worker per
    CPU this process may use, up to _DEFAULT_WORKERS_MAX, where
    multiprocessing's default start method is fork, else 1.  A forked
    worker starts with numpy already imported; a spawned or forkserver one
    imports it again, which cost more than it gained on the commands' own
    workloads."""
    # imported here, so that importing the CLI loads no multiprocessing
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _DEFAULT_WORKERS_MAX)


def _pool_size(workers: int | None, units: int) -> int:
    """Worker processes to start: at most one per unit and per CPU."""
    return max(1, min(workers or 1, units, os.cpu_count() or 1))


def _width(workers: int | None, trials: int, cells: int, entries: int, table: int) -> int:
    """The pool width of a run of `cells` cells of `trials` trials that
    draws `entries` table entries, `table` at most per trial: 1 when the
    run fits one serial block, and never so wide that one table per worker
    passes the budget, as the workers' blocks shrink only to one trial."""
    if entries <= _BLOCK_BUDGET:
        return 1
    return _pool_size(min(workers or 1, max(1, _BLOCK_BUDGET // table)), cells * trials)


def _trial_ranges(trials: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of min(width, trials) contiguous trial ranges, one per
    unit of a cell, as equal as can be."""
    parts = min(width, trials)
    return [(trials * i // parts, trials * (i + 1) // parts) for i in range(parts)]


def _add(a: tuple, b: tuple) -> tuple:
    """Two units' counts, summed field by field."""
    return tuple(x + y for x, y in zip(a, b))


def _run_units(units: list[Callable[[], tuple]], width: int) -> Iterator[tuple]:
    """Every unit's counts, in the order of units, from a pool of `width`
    worker processes; a pool of 1 is this process.  When a unit raises, the
    units not started are cancelled, and the workers are gone by the time
    the error propagates."""
    if width == 1:
        return (unit() for unit in units)
    # imported here, so a run without a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # From Python 3.12, a fork from a process with several threads (numpy's
    # BLAS starts some at import) warns with a DeprecationWarning.  Default
    # filters hide it; where warnings are errors, CPython drops it rather
    # than fail the fork.  The units call no BLAS routine.
    with ProcessPoolExecutor(max_workers=width) as pool:
        try:
            return iter([future.result() for future in [pool.submit(unit) for unit in units]])
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_sweep(plan: ExperimentPlan) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
    """evaluate_deployments(plan, k) for every k of the plan, in the order
    of plan.k_values, over one pool of up to plan.workers processes (see
    the module docstring)."""
    rows = phase_size(plan.n, plan.gammas[-1])
    entries = plan.trials * rows * sum(plan.k_values)
    width = _width(plan.workers, plan.trials, len(plan.k_values), entries, rows * max(plan.k_values))
    ranges = _trial_ranges(plan.trials, width)
    units = [partial(_count_deployments, plan, k, *span, width) for k in plan.k_values for span in ranges]
    counts = _run_units(units, width)
    return {k: reduce(_add, islice(counts, len(ranges))) for k in plan.k_values}


def run_keyring_census(
    n: int, k: int, trials: int = CENSUS_TRIALS_DEFAULT, base_seed: int = 0, workers: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Count all trials * n ring sizes and the per-trial largest rings,
    over a pool of up to `workers` processes (see the module docstring).

    Returns (histogram, max_histogram), int64 arrays indexed by ring size:
    the first sums to trials * n, the second to trials.  A ring holds
    k..k+n-1 keys.
    """
    _check_run(n, (k,), trials, base_seed, workers)
    width = _width(workers, trials, 1, trials * n * k, n * k)
    units = [partial(_count_rings, n, k, trials, base_seed, *span, width) for span in _trial_ranges(trials, width)]
    return reduce(_add, _run_units(units, width))


def _count_rings(
    n: int, k: int, trials: int, base_seed: int, start: int, stop: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The census counts of trials start..stop-1 alone, one unit of a run
    of `width` workers.

    Ring sizes ignore the order of a row, so the tables are drawn unsorted,
    in blocks of one sampler draw chunk (whole trials, at least one), which
    ring_sizes bins while they are still in cache; a block takes no more
    than 1/width of the budget, unless one trial does.
    """
    per = max(1, min(sampling._CHUNK // n, _BLOCK_BUDGET // (n * k * width)))
    blocks = _blocks(sampling.draw_pairing_block, per, n, k, trials, base_seed, n, start, stop)
    hist, max_hist = np.zeros((2, n + k), dtype=np.int64)
    for block in blocks:
        sizes = ring_sizes(block)
        hist += np.bincount(sizes.ravel(), minlength=n + k)
        max_hist += np.bincount(sizes.max(axis=1), minlength=n + k)
        del block
    return hist, max_hist
