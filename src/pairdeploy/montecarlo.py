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

Where K is well above the connectivity threshold, a deployment run draws
each block twice at most: first the first c Floyd steps of each row, a
subset of its K partners, which decides exactly every table joined at all
its views, and then whole rows for the others alone, as one block of
their trial ids (see _count_deployments).  c is chosen per K, before any
process forks, by a cost model priced from theory's first moment
(_prefix_steps); it is K, one pass as before, where a prefix would not
pay.  The counts do not depend on c.

A run of width w is split into w shares: share i is trial range i of
every k, each range walking its own blocks, and the run's counts are the
sums of the shares' integer counts, so they do not depend on the split.
The calling process runs share 0 and forks a child for each other share.
The width is at most what the caller asks for (default_workers is the
command line's default; the library runs serially unless asked), no more
than the CPUs this process may use within its cgroup CPU quota, and 1 off
Linux, where no run forks.  A run within one serial block, trials * rows *
(sum of its k) <= _BLOCK_BUDGET, is one share.  A wider run's blocks shrink
by the width, down to one trial, and no run is so wide that one of its
widest tables per process passes the budget, so its blocks in flight stay
within the budget, as a serial run's do.  A run whose one table (with the
graph kernel's int64 label per row) would not fit in physical memory is
refused before it draws.

Default trial counts: 200 for sweeps, 1000 for censuses.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import NoReturn

import numpy as np

from . import sampling, theory
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

# the cgroup v2 CPU quota of this process, "QUOTA PERIOD" or "max PERIOD" (in
# microseconds), as the cgroup namespace of a container shows it
_CPU_MAX = "/sys/fs/cgroup/cpu.max"

# the command line's default width is no more than this, the widest at which
# a run's speed and memory were measured (2 vCPUs); --workers asks for more
_DEFAULT_WORKERS_MAX = 2

# the prefix policy's cost model (see _prefix_steps), per table row, in units
# of one Floyd step of the draw loop with its share of the sort, as measured
# at n = 2000 (2 vCPUs): step s also compares its draw with the s earlier
# ones, _DUP_COST each; one connected_at pass costs _KERNEL_COST on the whole
# rows, and _PREFIX_KERNEL_COST on a prefix, whose sparser views take more
# columns and rounds to join
_DUP_COST = 0.022
_KERNEL_COST = 6.4
_PREFIX_KERNEL_COST = 10.9
# a prefix is drawn only where its expected cost is below this share of the
# whole draw's: on the README sweep, prefixes of K = 20..25 priced at about
# 0.8 of it by this model, and measured as no gain
_PREFIX_GAIN = 0.7

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
    is the most processes the run may use, this one included; None or 1
    runs it in this process alone."""

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
        _check_table(self.n, max(ks), phase_size(self.n, gs[-1]))
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


def _physical_memory() -> int | None:
    """Bytes of physical memory, where the platform reports them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_table(n: int, k: int, rows: int) -> None:
    """Refuse a run whose one table of `rows` rows of k partners, with the
    graph kernel's int64 label per row, would not fit in physical memory;
    blocks hold at least one table, so no smaller block could run it."""
    size = rows * (k * np.dtype(sampling._narrowest_int(n - 1)).itemsize + 8)
    memory = _physical_memory()
    if memory is not None and size > memory:
        raise ValueError(
            f"one table at n={n}, K={k} takes {size} bytes, more than the {memory} bytes of physical memory"
        )


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
    over up to plan.workers processes (see the module docstring).

    Returns (connected, no_isolated, joint): the trials connected and with
    no isolated node per fraction, as int64 arrays in the order of
    plan.gammas, and the trials connected at every fraction.
    """
    return run_sweep(replace(plan, k_values=(k,)))[k]


def _count_deployments(
    plan: ExperimentPlan, k: int, start: int, stop: int, width: int, steps: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """evaluate_deployments over trials start..stop-1 alone, one k of a
    share of a run of width `width`.

    The one evaluation pass: each block of tables is drawn with the rows
    its largest view reads, answered for every view by one connected_at
    call, and added to the counts before the next is drawn.  Blocks take
    1/width of the budget, down to one trial.

    With steps < k, a block is drawn with the first `steps` Floyd draws of
    each row only.  Floyd adds to its set and never takes from it, so these
    partners are some of the row's k, and each view of the prefix is a
    subgraph of the table's view: a table whose prefix joins at every view
    is joined at every view, with no isolated node (one, in a one-node
    view), as the whole rows would answer.  The other tables are drawn
    whole, as one block of their trial ids, and answered by connected_at
    again, after the prefix block is dropped.
    """
    ms = [phase_size(plan.n, g) for g in plan.gammas]
    steps = k if steps is None else steps
    connected, no_isolated = np.zeros((2, len(ms)), dtype=np.int64)
    joint = 0
    per = max(1, _BLOCK_BUDGET // (ms[-1] * k * width))
    draw = sampling.sample_pairing_block
    seed = sampling.fold(plan.base_seed, k)

    def prefix(seed: int, first: int, count: int, n: int, k: int, rows: int) -> np.ndarray:
        return draw(seed, first, count, n, k, rows, steps)

    first = start
    for block in _blocks(prefix, per, plan.n, k, plan.trials, plan.base_seed, ms[-1], start, stop):
        conn, iso = connected_at(block, ms)
        del block
        undecided = np.flatnonzero(~conn.all(axis=0)) if steps < k else ()
        if len(undecided):
            ids = first + undecided
            whole = draw(seed, int(ids[0]), len(ids), plan.n, k, ms[-1], k, ids)
            conn[:, undecided], iso[:, undecided] = connected_at(whole, ms)
            del whole
        first += conn.shape[1]
        connected += conn.sum(axis=1)
        no_isolated += (iso == 0).sum(axis=1)
        joint += int(conn.all(axis=0).sum())
    return connected, no_isolated, joint


def _prefix_steps(n: int, k: int, gammas: tuple[float, ...]) -> int:
    """How many of each row's k Floyd steps a run's first pass draws: k, for
    no prefix pass, unless a shorter prefix is expected to cost less than
    _PREFIX_GAIN of the whole draw (see _count_deployments).

    A prefix of c >= 2 steps (one step gives a 1-out graph, never connected)
    costs its draw, sort and kernel, plus, for the share of its tables that
    some view leaves unjoined, the whole draw again.  That share is priced
    from the first moment: theory.expected_isolated(n, c, gamma) summed over
    the views of 2 to n-1 nodes, as the chance 1 - exp(-sum) that an
    isolated node, the usual reason a view is split, appears in any.  A
    prefix draws from fewer candidates, the lowest ones, which raises the
    chance that a partner is deployed, so this errs towards the whole draw.
    The candidates c are tried from the costliest affordable one down, and
    the search stops once the cheapest prefix, of two steps, with the
    refills of this c would cost more than the best found: a shorter prefix
    leaves more tables unjoined.  Only speed depends on the answer, never
    the counts.
    """
    def cost(steps: int) -> float:
        return steps * (1 + _DUP_COST * (steps - 1) / 2) + (_KERNEL_COST if steps == k else _PREFIX_KERNEL_COST)

    whole = cost(k)
    best, bound = k, _PREFIX_GAIN * whole
    views = [g for m, g in {phase_size(n, g): g for g in gammas}.items() if 2 <= m < n]
    for c in range(k - 1, 1, -1):
        if cost(c) >= bound:
            continue
        refill = -math.expm1(-sum(theory.expected_isolated(n, c, g) for g in views)) * whole
        if cost(c) + refill < bound:
            best, bound = c, cost(c) + refill
        elif cost(2) + refill >= bound:
            break
    return best


def _pool_cpus() -> int:
    """The CPUs a run may spread over: those this process may use, on
    Linux, where runs fork, and no more than its cgroup's CPU quota allows;
    1 elsewhere, where every run is serial."""
    if sys.platform != "linux":
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _cpu_quota() -> int | None:
    """The CPUs the cgroup v2 quota of this process allows, its quota over
    its period rounded up, from _CPU_MAX; None where the file is missing or
    malformed, or says "max", no quota."""
    try:
        with open(_CPU_MAX) as fp:
            quota, period = fp.read().split()
        if quota == "max":
            return None
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError, ZeroDivisionError):
        return None


def default_workers() -> int:
    """The width of a command-line run that names none: one process per
    CPU this process may use, up to _DEFAULT_WORKERS_MAX, the calling
    process being worker 0, on Linux; 1 elsewhere.  A forked child starts
    with numpy already imported, where a spawned one would import it again,
    which cost more than it gained on the commands' own workloads."""
    return min(_pool_cpus(), _DEFAULT_WORKERS_MAX)


def _pool_size(workers: int | None, trials: int) -> int:
    """Processes to run on: at most one per trial and per usable CPU."""
    return max(1, min(workers or 1, trials, _pool_cpus()))


def _width(workers: int | None, trials: int, entries: int, table: int) -> int:
    """The width of a run of `trials` trials that draws `entries` table
    entries, `table` at most per trial: 1 when the run fits one serial
    block, and never so wide that one table per process passes the budget,
    as the shares' blocks shrink only to one trial."""
    if entries <= _BLOCK_BUDGET:
        return 1
    return _pool_size(min(workers or 1, max(1, _BLOCK_BUDGET // table)), trials)


def _trial_ranges(trials: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of `width` (at most `trials`) contiguous trial ranges,
    one per share of a run, as equal as can be."""
    return [(trials * i // width, trials * (i + 1) // width) for i in range(width)]


def _add(a: tuple, b: tuple) -> tuple:
    """Two shares' counts, summed field by field."""
    return tuple(x + y for x, y in zip(a, b))


def _run_shares(shares: list[list[Callable[[], tuple]]]) -> list[tuple]:
    """The counts of each position of the shares' calls, summed over the
    shares: share 0 runs here, each other one in a child forked for it (see
    _send), whose exception is raised here.  Every child is reaped before
    this returns or raises, and killed first if this raises."""
    counts, pids, reads = [], [], []  # pids: the children not yet reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                # from Python 3.12 a fork from a process with threads (numpy's BLAS
                # starts some) warns: default filters hide it, and where warnings
                # are errors CPython drops it rather than fail the fork.  Shares
                # call no BLAS routine.
                pid = os.fork()
                if pid == 0:
                    _send(share, write)
            finally:
                os.close(write)
            pids.append(pid)
        counts.append([call() for call in shares[0]])
        for read, pid in zip(reads, pids[:]):
            payload = b"".join(iter(partial(os.read, read, 1 << 20), b""))
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status or not payload:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a worker process ended without its counts (exit code {code})")
            done, result = pickle.loads(payload)
            if not done:
                raise result
            counts.append(result)
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)
    return [reduce(_add, column) for column in zip(*counts)]


def _send(share: list[Callable[[], tuple]], write: int) -> NoReturn:
    """In a forked child: pickle the counts of the share's calls, or the
    exception one raised, into the pipe, and end the child, exiting 0 once
    the whole result is written, without returning into the caller's frames
    or flushing the stdio it inherited."""
    code = 1
    try:
        try:
            result = (True, [call() for call in share])
        except BaseException as exc:
            result = (False, exc)
        with open(write, "wb") as fp:
            pickle.dump(result, fp)
        code = 0
    finally:
        os._exit(code)


def run_sweep(plan: ExperimentPlan) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
    """evaluate_deployments(plan, k) for every k of the plan, in the order
    of plan.k_values, over up to plan.workers processes (see the module
    docstring)."""
    rows = phase_size(plan.n, plan.gammas[-1])
    entries = plan.trials * rows * sum(plan.k_values)
    width = _width(plan.workers, plan.trials, entries, rows * max(plan.k_values))
    steps = {k: _prefix_steps(plan.n, k, plan.gammas) for k in plan.k_values}
    shares = [
        [partial(_count_deployments, plan, k, *span, width, steps=steps[k]) for k in plan.k_values]
        for span in _trial_ranges(plan.trials, width)
    ]
    return dict(zip(plan.k_values, _run_shares(shares)))


def run_keyring_census(
    n: int, k: int, trials: int = CENSUS_TRIALS_DEFAULT, base_seed: int = 0, workers: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Count all trials * n ring sizes and the per-trial largest rings,
    over up to `workers` processes (see the module docstring).

    Returns (histogram, max_histogram), int64 arrays indexed by ring size:
    the first sums to trials * n, the second to trials.  A ring holds
    k..k+n-1 keys.
    """
    _check_run(n, (k,), trials, base_seed, workers)
    _check_table(n, k, n)
    width = _width(workers, trials, trials * n * k, n * k)
    shares = [[partial(_count_rings, n, k, trials, base_seed, *span, width)] for span in _trial_ranges(trials, width)]
    return _run_shares(shares)[0]


def _count_rings(
    n: int, k: int, trials: int, base_seed: int, start: int, stop: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The census counts of trials start..stop-1 alone, the share of a run
    of width `width`.

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
