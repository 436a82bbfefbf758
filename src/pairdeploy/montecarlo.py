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
and censuses step through their trials in blocks, and fold each block into
counts before drawing the next.  Deployment runs draw every block, first
pass and refill alike, through _band_block: sorted blocks under
_BLOCK_BUDGET, for the graph kernel.  The census, whose ring sizes ignore
row order, draws unsorted blocks of one sampler draw chunk, small enough to
bin while they are in cache.  This module returns counts; the command line
turns them into estimates with wilson_interval, and into census summaries.

Where K is well above the connectivity threshold, a deployment run draws
each block twice at most.  A block's rows fall into bands, band r being
the rows between the sizes of views r-1 and r, which views r and later
read alone.  The first pass draws band r with the first c_r Floyd steps
of each row, a subset of its K partners, so it answers exactly every view
it joins and every view whose bands it draws whole; then each table with
an undecided view is drawn again, whole rows below its largest undecided
view only, in blocks of trial ids with the other tables of that view
(see _count_deployments).  The c_r are chosen per K, before any process
forks, by a cost model priced from theory's first moment over the views
that read each band (_prefix_steps); c_r = K draws band r whole, and
where every band is whole the run is one pass.  The counts do not depend
on any c_r.

A run of width w is a list of calls, w per k: call i of a k counts trial
range i of its trials, each range walking its own blocks, and the run's
counts for a k are the sums of its calls' integer counts, so they do not
depend on the split.  The runner module runs the calls: this process and
w - 1 children forked for the run each take the next calls from one queue
until none is left.  The width is at most what the caller asks for
(WORKERS_DEFAULT is the command line's default; the library runs serially
unless asked), no more than the CPUs this process may use within its
cgroup CPU quota, and 1 off Linux, where no run forks.  A run within one
serial block, trials * rows * (sum of its k) <= _BLOCK_BUDGET, is one call
per k, run here.  A wider run's blocks shrink by the width, down to one
trial, and no run is so wide that one of its widest tables per process
passes the budget, so its blocks in flight stay within the budget, as a
serial run's do.  A run whose one table (with the graph kernel's int64
label per row) would not fit in physical memory is refused before it
draws.

Default trial counts: 200 for sweeps, 1000 for censuses.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import runner, sampling, theory
from .graphs import connected_at
from .scheme import SchemeParams, phase_size

__all__ = [
    "SWEEP_TRIALS_DEFAULT",
    "CENSUS_TRIALS_DEFAULT",
    "WORKERS_DEFAULT",
    "ExperimentPlan",
    "wilson_interval",
    "run_sweep",
    "run_keyring_census",
]

SWEEP_TRIALS_DEFAULT = 200
CENSUS_TRIALS_DEFAULT = 1000

# the command line's default width, the widest at which a run's speed and
# memory were measured (2 vCPUs); --workers asks for more.  A run is never
# wider than the CPUs it may use (see _width), and a forked child starts
# with numpy already imported, where a spawned one would import it again,
# which cost more than it gained on the commands' own workloads
WORKERS_DEFAULT = 2

# the deployment runs' tables per block are capped around this many entries
# of the sampler's type (int16 at n=1000, so a block there is about 8 MB);
# the census draws smaller blocks, one sampler chunk each.  Loops over blocks
# drop each block before drawing the next: holding the last one through the
# next draw raises peak RSS by about a block (phased at n=2000, K=37: 45.0 to
# 53.5 MB; a sweep at n=1e6, K=40: 239 to 395 MB).
_BLOCK_BUDGET = 4_000_000

# partner ids binned per np.bincount call in _ring_sizes: its int64 copy of
# them, 256 KiB, stays in cache
_BIN_ENTRIES = 1 << 15

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
    is the most processes the run may use, this one included; 1 runs it
    in this process alone.  k_values is kept as a tuple; a range is checked
    by its ends and listed only once its widest table is known to fit, so
    a huge one is refused at once, without allocating.  views, derived
    from n and the gammas (so dataclasses.replace derives it again), holds
    each fraction's view size, phase_size(n, gamma), in their order."""

    n: int
    k_values: Sequence[int]
    gammas: tuple[float, ...]
    trials: int = SWEEP_TRIALS_DEFAULT
    base_seed: int = 0
    workers: int = 1
    views: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        ks = self.k_values
        if not isinstance(ks, range):  # a range never repeats
            ks = tuple(int(k) for k in ks)
            if len(set(ks)) != len(ks):
                raise ValueError(f"k_values must not repeat, got {ks}")
        if not ks:
            raise ValueError("k_values must be nonempty")
        ends = (ks[0], ks[-1]) if isinstance(ks, range) else ks
        low, high = min(ends), max(ends)
        _check_run(self.n, low, high, self.trials, self.base_seed, self.workers)
        gs = tuple(float(g) for g in self.gammas)
        if not gs:
            raise ValueError("schedule needs at least one deployment fraction")
        if any(a >= b for a, b in zip(gs, gs[1:])):
            raise ValueError(f"deployment fractions must be strictly increasing, got {gs}")
        views = tuple(phase_size(self.n, g) for g in gs)  # validates 0 < gamma <= 1 and floor(gamma*n) >= 1
        _check_table(self.n, high, views[-1])
        object.__setattr__(self, "k_values", tuple(ks))
        object.__setattr__(self, "gammas", gs)
        object.__setattr__(self, "views", views)


def _check_run(n: int, low: int, high: int, trials: int, base_seed: int, workers: int) -> None:
    """The checks every run makes before it allocates or starts a process.
    SchemeParams takes an interval of k, so the run's least and greatest
    k stand for all of its ks."""
    SchemeParams(n, low)
    SchemeParams(n, high)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if trials > 1 << 64:  # trial ids are 64-bit stream words
        raise ValueError(f"need trials <= 2**64, got {trials}")
    if not 0 <= base_seed <= sampling.MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {base_seed}")
    if workers < 1:
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


def _band_block(seed: int, n: int, k: int, ids: Sequence[int], runs: list[tuple[int, int, int]]) -> np.ndarray:
    """The sorted block of tables `ids` (ascending trial ids) of the k-key
    scheme keyed by `seed`, drawn run by run: runs lists (first row, end
    row, steps) of consecutive row ranges from row 0, each drawn with its
    first `steps` Floyd draws per row.  One run is the sampler's block as
    it stands; where there are more, each run is sorted on its own and
    placed in a block of their most steps, the columns past its own filled
    with a repeat of its last, the row's largest partner, which adds no
    edge and keeps the row ascending."""
    draw = partial(sampling.sample_pairing_block, seed, ids, n, k)
    if len(runs) == 1:
        lo, hi, c = runs[0]
        return draw(range(lo, hi), c)
    top = max(c for _, _, c in runs)
    block = np.moveaxis(np.empty((top, len(ids), runs[-1][1]), dtype=sampling._narrowest_int(n - 1)), 0, -1)
    for lo, hi, c in runs:
        part = draw(range(lo, hi), c)
        block[:, lo:hi, :c] = part
        block[:, lo:hi, c:] = part[..., -1:]
    return block


def _count_deployments(
    plan: ExperimentPlan, k: int, start: int, stop: int, width: int, steps: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, int]:
    """run_sweep's counts for k over trials start..stop-1 alone, one call
    of a run of width `width`: (connected, no_isolated, joint), the
    trials connected and with no isolated node per fraction, as int64
    arrays in the order of plan.gammas, and the trials connected at every
    fraction.

    The one evaluation pass: each block of tables is drawn by _band_block
    with the rows its largest view reads, answered for every view by one
    connected_at call, and added to the counts before the next is drawn.
    Blocks take 1/width of the budget, down to one trial.

    steps[r] is the number of Floyd draws of band r, rows ms[r-1]..ms[r]-1
    (from row 0 for band 0, none where ms[r-1] = ms[r]), which views r and
    later read; bands of equal steps merge into one run.  A band of fewer
    than k steps holds some of each row's k partners, as Floyd adds to its
    set and never takes from it, so each view of the block is a subgraph of
    the table's view: a view the block joins is joined, with no isolated
    node (one, in a one-node view), as the whole rows would answer, and so
    is the answer of a view whose bands are all whole.  A table that leaves
    some view undecided waits, as its trial id, to be drawn again by
    _band_block with whole rows below its largest undecided view u, one run
    of k steps, in a block with other tables of the same u: once they fill a
    block, and at the end for the rest.  connected_at answers views 0..u,
    and each view past u counts as connected with no isolated node: it is
    not split (u is the largest undecided view) nor exact (or view u, no
    larger, would be), so the first pass joined it, and it has two nodes or
    more, as a one-node view u is joined.  So refills draw few blocks, each
    after the first-pass block before it is dropped, and a call holds the
    ids of fewer than two blocks of waiting tables per view.
    """
    ms = plan.views
    runs: list[tuple[int, int, int]] = []  # (first row, end row, steps) of the bands merged by steps
    for lo, m, c in zip([0, *ms], ms, steps):
        if lo == m:
            continue  # an empty band, of a repeated view size
        if runs and runs[-1][2] == c:
            runs[-1] = (runs[-1][0], m, c)
        else:
            runs.append((lo, m, c))
    # the views within the rows drawn whole, which the first pass answers as they stand
    exact = np.array(ms) <= next((lo for lo, _, c in runs if c < k), ms[-1])
    counts = np.zeros((2, len(ms)), dtype=np.int64)  # connected, no_isolated
    joint = 0
    per = max(1, _BLOCK_BUDGET // (ms[-1] * k * width))
    seed = sampling.fold(plan.base_seed, k)

    def add(conn: np.ndarray, iso: np.ndarray) -> None:
        # the answers of views 0..len(conn)-1; every view past them is connected with no isolated node
        nonlocal joint
        counts[:, : len(conn)] += conn.sum(axis=1), (iso == 0).sum(axis=1)
        counts[:, len(conn) :] += conn.shape[1]
        joint += int(conn.all(axis=0).sum())

    # per largest undecided view u, the trial ids of its tables that wait for a refill
    waiting: list[list[np.ndarray]] = [[] for _ in ms]

    def refill(u: int) -> None:
        ids = np.concatenate(waiting[u])
        waiting[u].clear()
        for lo in range(0, len(ids), per):
            add(*connected_at(_band_block(seed, plan.n, k, ids[lo : lo + per], [(0, ms[u], k)]), ms[: u + 1]))

    for first in range(start, stop, per):
        conn, iso = connected_at(_band_block(seed, plan.n, k, range(first, min(first + per, stop)), runs), ms)
        split = ~conn & ~exact[:, None]
        last = np.where(split.any(axis=0), len(ms) - 1 - split[::-1].argmax(axis=0), -1)
        add(conn[:, last < 0], iso[:, last < 0])
        for u in range(len(ms)):
            picked = last == u
            if picked.any():
                waiting[u].append(first + np.flatnonzero(picked))
                if sum(map(len, waiting[u])) >= per:
                    refill(u)
    for u in range(len(ms)):
        if waiting[u]:
            refill(u)
    return counts[0], counts[1], joint


def _prefix_steps(plan: ExperimentPlan, k: int, isolated: Callable[[int, float], float]) -> tuple[int, ...]:
    """How many of each row's k Floyd steps a run's first pass draws, per
    band (see _count_deployments): for band r, k, drawn whole, unless a
    shorter prefix is expected to cost less than _PREFIX_GAIN of the whole
    draw, priced over the views that read the band, plan.gammas[r:], one
    fraction per view size.  isolated(c, gamma) is theory.expected_isolated
    at plan.n; a run passes one memo for all its k.

    A prefix of c >= 2 steps (one step gives a 1-out graph, never connected)
    costs its draw, sort and kernel, plus, for the share of its tables that
    some view leaves unjoined, the whole draw again.  That share is priced
    from the first moment: isolated(c, gamma) summed over the views of 2 to
    n-1 nodes, as the chance 1 - exp(-sum) that an isolated node, the usual
    reason a view is split, appears in any.  A prefix draws from fewer
    candidates, the lowest ones, which raises the chance that a partner is
    deployed, so this errs towards the whole draw.  Only speed depends on
    the answer, never the counts.

    Every c whose draw alone costs less than _PREFIX_GAIN of the whole
    draw is priced, its terms summed by math.fsum, so the choice does not
    depend on whether the interpreter's sum compensates; the cheapest
    priced below that bound wins, the largest of equals, and k where none
    is.
    """
    def cost(steps: int) -> float:
        return steps * (1 + _DUP_COST * (steps - 1) / 2) + (_KERNEL_COST if steps == k else _PREFIX_KERNEL_COST)

    whole = cost(k)
    bound = _PREFIX_GAIN * whole
    bands = []
    for r in range(len(plan.views)):
        fractions = [g for m, g in dict(zip(plan.views[r:], plan.gammas[r:])).items() if 2 <= m < plan.n]
        price = {
            c: cost(c) - math.expm1(-math.fsum(isolated(c, g) for g in fractions)) * whole
            for c in range(k - 1, 1, -1)
            if cost(c) < bound
        }
        bands.append(min((c for c in price if price[c] < bound), key=price.get, default=k))
    return tuple(bands)


def _width(workers: int, trials: int, entries: int, table: int) -> int:
    """The width of a run of `trials` trials that draws `entries` table
    entries, `table` at most per trial: 1 when the run fits one serial
    block, else at most `workers`, one process per trial and per usable
    CPU, and never so wide that one table per process passes the budget,
    as the calls' blocks shrink only to one trial."""
    if entries <= _BLOCK_BUDGET:
        return 1
    return max(1, min(workers, _BLOCK_BUDGET // table, trials, runner._pool_cpus()))


def _trial_ranges(trials: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of `width` (at most `trials`) contiguous trial ranges,
    one per call of each k of a run, as equal as can be."""
    return [(trials * i // width, trials * (i + 1) // width) for i in range(width)]


def run_sweep(plan: ExperimentPlan) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
    """Count the outcomes of every gamma view of the plan's tables, per k
    in the order of plan.k_values, over up to plan.workers processes (see
    the module docstring).

    Each k maps to (connected, no_isolated, joint): the trials connected
    and with no isolated node per fraction, as int64 arrays in the order
    of plan.gammas, and the trials connected at every fraction.
    """
    rows = plan.views[-1]
    entries = plan.trials * rows * sum(plan.k_values)
    width = _width(plan.workers, plan.trials, entries, rows * max(plan.k_values))
    isolated = cache(partial(theory.expected_isolated, plan.n))
    steps = {k: _prefix_steps(plan, k, isolated) for k in plan.k_values}
    calls = [
        partial(_count_deployments, plan, k, *span, width, steps=steps[k])
        for k in plan.k_values
        for span in _trial_ranges(plan.trials, width)
    ]
    results = runner.run(calls, width)  # width calls per k, summed field by field
    return {k: tuple(map(sum, zip(*results[i * width : (i + 1) * width]))) for i, k in enumerate(plan.k_values)}


def run_keyring_census(
    n: int, k: int, trials: int = CENSUS_TRIALS_DEFAULT, base_seed: int = 0, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Count all trials * n ring sizes and the per-trial largest rings,
    over up to `workers` processes (see the module docstring).

    Returns (histogram, max_histogram), int64 arrays indexed by ring size:
    the first sums to trials * n, the second to trials.  A ring holds
    k..k+n-1 keys.
    """
    _check_run(n, k, k, trials, base_seed, workers)
    _check_table(n, k, n)
    width = _width(workers, trials, trials * n * k, n * k)
    calls = [partial(_count_rings, n, k, base_seed, *span, width) for span in _trial_ranges(trials, width)]
    return tuple(map(sum, zip(*runner.run(calls, width))))


def _count_rings(n: int, k: int, base_seed: int, start: int, stop: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The census counts of trials start..stop-1 alone, one call of a run
    of width `width`.

    Ring sizes ignore the order of a row, so the tables are drawn unsorted,
    in blocks of one sampler draw chunk (whole trials, at least one), which
    _ring_sizes bins while they are still in cache; a block takes no more
    than 1/width of the budget, unless one trial does.
    """
    per = max(1, min(sampling._CHUNK // n, _BLOCK_BUDGET // (n * k * width)))
    seed = sampling.fold(base_seed, k)
    hist, max_hist = np.zeros((2, n + k), dtype=np.int64)
    for first in range(start, stop, per):
        sizes = _ring_sizes(sampling.draw_pairing_block(seed, range(first, min(first + per, stop)), n, k))
        hist += np.bincount(sizes.ravel(), minlength=n + k)
        max_hist += np.bincount(sizes.max(axis=1), minlength=n + k)
    return hist, max_hist


def _ring_sizes(block: np.ndarray) -> np.ndarray:
    """Key ring sizes for a (trials, n, k) block of partner arrays: k plus
    the reverse degree of every node of every table, a (trials, n) int64
    array.  Rows may come in any order.

    One loop bins about _BIN_ENTRIES partner ids per np.bincount call,
    read from the (k, n) column slices of a group of tables, contiguous in
    the sampler's selection-major blocks, with ids offset by n per table.
    Tables with n*k <= _BIN_ENTRIES go several to a call, all columns at
    once; a larger one goes alone, a group of at least one column per
    call, so no whole table is copied or widened.
    """
    trials, n, k = block.shape
    cols = np.moveaxis(block, -1, 0)  # (k, trials, n)
    sizes = np.full((trials, n), k, dtype=np.int64)
    per = max(1, _BIN_ENTRIES // (n * k))  # tables per call
    step = max(1, _BIN_ENTRIES // (n * per))  # columns per call
    for lo in range(0, trials, per):
        group = sizes[lo : lo + per]
        offsets = np.arange(0, group.size, n)[:, None]
        for c in range(0, k, step):
            ids = cols[c : c + step, lo : lo + per] + offsets
            group += np.bincount(ids.ravel(), minlength=group.size).reshape(-1, n)
    return sizes
