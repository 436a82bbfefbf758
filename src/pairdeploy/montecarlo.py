"""Repeat-trial experiments: connectivity/isolation sweeps, phased
deployments, and key-ring censuses.

Sweeps are coupled: one table is generated per (k, trial) and every
deployment fraction is evaluated as a view of that same table, matching
how a gradually deployed network actually grows.  Table seeds derive from
(base_seed, k, trial) through the sampling module's stream keying, so any
execution order, chunking, or worker count reproduces identical results.

Default trial counts: 200 for sweeps, 1000 for censuses.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sampling
from .graphs import connected_at
from .scheme import SchemeParams, phase_size

__all__ = [
    "SWEEP_TRIALS_DEFAULT",
    "CENSUS_TRIALS_DEFAULT",
    "ExperimentPlan",
    "Estimate",
    "RingCensus",
    "DeploymentSchedule",
    "wilson_interval",
    "estimate_from",
    "evaluate_deployments",
    "run_sweep",
    "run_phased_detail",
    "run_keyring_census",
]

SWEEP_TRIALS_DEFAULT = 200
CENSUS_TRIALS_DEFAULT = 1000

# generated tables per block are capped around this many int64 entries.
# Loops over blocks drop each block before drawing the next: holding two
# ~32 MB blocks at once left freed holes in the malloc heap, and peak RSS
# then swung by ~25 MB from one process to the next.
_BLOCK_BUDGET = 4_000_000


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class Estimate:
    """A binomial success estimate with its 95% Wilson interval."""

    successes: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float


def estimate_from(successes: int, trials: int) -> Estimate:
    low, high = wilson_interval(successes, trials)
    return Estimate(successes, trials, successes / trials, low, high)


@dataclass(frozen=True)
class DeploymentSchedule:
    """Deployment fractions gamma_1 < ... < gamma_l, each in (0, 1]."""

    gammas: tuple[float, ...]

    def __post_init__(self) -> None:
        gs = tuple(float(g) for g in self.gammas)
        if not gs:
            raise ValueError("schedule needs at least one deployment fraction")
        for g in gs:
            if not 0 < g <= 1:
                raise ValueError(f"deployment fractions must be in (0, 1], got {g}")
        if any(a >= b for a, b in zip(gs, gs[1:])):
            raise ValueError(f"schedule must be strictly increasing, got {gs}")
        object.__setattr__(self, "gammas", gs)


@dataclass(frozen=True)
class ExperimentPlan:
    """A sweep: all (k, gamma) cells share n, trials, and seeding."""

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
        for k in ks:
            SchemeParams(self.n, k)
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        sched = DeploymentSchedule(self.gammas)  # validates ordering and range
        for g in sched.gammas:
            phase_size(self.n, g)  # validates floor(gamma*n) >= 1
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "gammas", sched.gammas)


def _table_seed(base_seed: int, k: int) -> int:
    return sampling.fold(base_seed, k)


def _block_sizes(n: int, k: int, trials: int) -> list[tuple[int, int]]:
    per = max(1, _BLOCK_BUDGET // (n * k))
    return [(start, min(per, trials - start)) for start in range(0, trials, per)]


def evaluate_deployments(
    n: int, k: int, gammas: tuple[float, ...], trials: int, base_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generate `trials` tables for (n, k) and evaluate every gamma view.

    The workhorse behind sweeps and phased runs: per trial, one table,
    all fractions checked on it, one connected_at call per view for a
    whole block of tables.  (n, k) and trials are checked before anything
    is allocated.  Returns (connected, isolated), bool and int64 arrays of
    shape (len(gammas), trials); row i belongs to gammas[i].
    """
    SchemeParams(n, k)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    ms = [phase_size(n, g) for g in gammas]
    connected = np.empty((len(ms), trials), dtype=bool)
    isolated = np.empty((len(ms), trials), dtype=np.int64)
    seed = _table_seed(base_seed, k)
    for start, count in _block_sizes(n, k, trials):
        block = sampling.sample_pairing_block(seed, start, count, n, k)
        span = slice(start, start + count)
        for i, m in enumerate(ms):
            connected[i, span], isolated[i, span] = connected_at(block, m)
        del block
    return connected, isolated


def _pool_size(workers: int | None, cells: int) -> int:
    """Worker processes to start: at most one per cell and per CPU."""
    return max(1, min(workers or 1, cells, os.cpu_count() or 1))


def run_sweep(plan: ExperimentPlan) -> dict[str, dict[tuple[float, int], Estimate]]:
    """Both sweep curves from one evaluation pass, indexed by (gamma, k):
    "connected" estimates P[deployed graph connected] and "no_isolated"
    P[deployed graph has no isolated node], on the same tables."""
    evaluate = partial(
        evaluate_deployments,
        plan.n,
        gammas=plan.gammas,
        trials=plan.trials,
        base_seed=plan.base_seed,
    )
    size = _pool_size(plan.workers, len(plan.k_values))
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            outcomes = list(pool.map(evaluate, plan.k_values))
    else:
        outcomes = list(map(evaluate, plan.k_values))
    connected: dict[tuple[float, int], Estimate] = {}
    no_isolated: dict[tuple[float, int], Estimate] = {}
    for k, (conn, iso) in zip(plan.k_values, outcomes):
        for g, conn_g, iso_g in zip(plan.gammas, conn, iso):
            connected[(g, k)] = estimate_from(int(conn_g.sum()), plan.trials)
            no_isolated[(g, k)] = estimate_from(int((iso_g == 0).sum()), plan.trials)
    return {"connected": connected, "no_isolated": no_isolated}


def run_phased_detail(
    n: int, k: int, schedule: DeploymentSchedule, trials: int, base_seed: int
) -> tuple[Estimate, dict[float, Estimate]]:
    """Estimate of the joint event, connected at every phase of the
    schedule, plus per-phase estimates, computed on the same trials."""
    connected, _ = evaluate_deployments(n, k, schedule.gammas, trials, base_seed)
    phases = {g: estimate_from(int(c.sum()), trials) for g, c in zip(schedule.gammas, connected)}
    return estimate_from(int(connected.all(axis=0).sum()), trials), phases


@dataclass(frozen=True)
class RingCensus:
    """Aggregated ring sizes over trials * n rings.

    histogram counts every ring; max_histogram counts each trial's largest
    ring.  frac_over_3k is the fraction of all rings strictly larger than
    3k; mean_size is exactly 2k by conservation (kept as an output check).
    """

    n: int
    k: int
    trials: int
    histogram: dict[int, int]
    max_histogram: dict[int, int]
    frac_over_3k: float
    mean_size: float
    largest: int


def run_keyring_census(
    n: int, k: int, trials: int = CENSUS_TRIALS_DEFAULT, base_seed: int = 0
) -> RingCensus:
    """Tabulate all trials * n ring sizes and the per-trial maxima."""
    SchemeParams(n, k)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    seed = _table_seed(base_seed, k)
    hist = np.zeros(1, dtype=np.int64)
    max_hist = np.zeros(1, dtype=np.int64)
    for start, count in _block_sizes(n, k, trials):
        block = sampling.sample_pairing_block(seed, start, count, n, k)
        for t in range(count):
            sizes = k + np.bincount(block[t].ravel(), minlength=n)
            top = int(sizes.max())
            counts = np.bincount(sizes)
            if len(counts) > len(hist):
                hist = np.pad(hist, (0, len(counts) - len(hist)))
            hist[: len(counts)] += counts
            if top >= len(max_hist):
                max_hist = np.pad(max_hist, (0, top + 1 - len(max_hist)))
            max_hist[top] += 1
        del block
    total = trials * n
    sizes_axis = np.arange(len(hist))
    frac_over = float(hist[sizes_axis > 3 * k].sum() / total)
    mean = float((hist * sizes_axis).sum() / total)
    largest = int(np.nonzero(hist)[0].max())
    return RingCensus(
        n=n,
        k=k,
        trials=trials,
        histogram={int(s): int(c) for s, c in enumerate(hist) if c},
        max_histogram={int(s): int(c) for s, c in enumerate(max_hist) if c},
        frac_over_3k=frac_over,
        mean_size=mean,
        largest=largest,
    )
