"""Experiment harness: Wilson intervals, sweep coupling, censuses, and the
exhaustive small-instance oracle.

The n=4, k=1 scheme has exactly 3^4 = 81 equally likely pairing tables, so
every probability is computable by brute force over them, with the graph
oracles of reference.py, which share no code with the library.  Monte
Carlo estimates must land within 3 standard errors of those exact values.
The census is checked against reference.py's ring sizes.
"""

import math
import os
import sys
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest

from pairdeploy import montecarlo, runner, sampling, theory
from pairdeploy.graphs import connected_at
from pairdeploy.montecarlo import (
    CENSUS_TRIALS_DEFAULT,
    SWEEP_TRIALS_DEFAULT,
    ExperimentPlan,
    _width,
    run_keyring_census,
    run_sweep,
    wilson_interval,
)
from pairing_fixtures import assert_no_child_left, per_trial_outcomes
from reference import all_tables, bfs_connected, mask_isolated, ring_sizes, uf_connected


class TestWilson:
    def test_all_successes(self):
        low, high = wilson_interval(200, 200)
        assert abs(low - 0.981153994081679) < 1e-12
        assert high == 1.0

    def test_no_successes(self):
        low, high = wilson_interval(0, 200)
        assert low == 0.0
        assert abs(high - 0.018846005918321) < 1e-12

    def test_half_successes(self):
        low, high = wilson_interval(100, 200)
        assert abs((high - low) - 0.13728075581931) < 1e-12
        assert abs((low + high) / 2 - 0.5) < 1e-12  # symmetric at p = 1/2

    def test_domain(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    @pytest.mark.parametrize("successes", range(201))
    def test_estimate_ordering(self, successes):
        low, high = wilson_interval(successes, 200)
        assert 0.0 <= low <= successes / 200 <= high <= 1.0


class TestValidation:
    def test_schedule_must_increase(self):
        ExperimentPlan(10, (1,), (0.25, 0.5, 1.0), trials=5)
        ExperimentPlan(10, (1,), (1.0,), trials=5)
        with pytest.raises(ValueError, match="at least one"):
            ExperimentPlan(10, (1,), (), trials=5)
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentPlan(10, (1,), (0.5, 0.25), trials=5)
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentPlan(10, (1,), (0.5, 0.5), trials=5)
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            ExperimentPlan(10, (1,), (0.0, 0.5), trials=5)
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            ExperimentPlan(10, (1,), (0.5, 1.2), trials=5)
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            ExperimentPlan(10, (1,), (0.5, float("nan")), trials=5)
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            ExperimentPlan(10, (1,), (float("inf"),), trials=5)

    def test_plan_validation(self):
        ExperimentPlan(10, (1, 2), (0.5, 1.0), trials=5)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (), (0.5,), trials=5)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (10,), (0.5,), trials=5)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (2, 3, 2), (0.5,), trials=5)  # repeated k
        with pytest.raises(ValueError):
            ExperimentPlan(10, (1,), (0.5,), trials=0)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (1,), (0.05,), trials=5)  # floor(gamma*n) = 0
        with pytest.raises(ValueError):
            ExperimentPlan(10, (1,), (0.5,), trials=5, workers=0)
        ExperimentPlan(10, (1,), (0.5,), trials=5, base_seed=2**64 - 1)
        ExperimentPlan(10, (1,), (0.5,), trials=2**64)  # trial ids 0..2**64-1, the stream words
        with pytest.raises(ValueError, match=r"need trials <= 2\*\*64, got 18446744073709551617"):
            ExperimentPlan(10, (1,), (0.5,), trials=2**64 + 1)
        with pytest.raises(ValueError, match=r"need trials <= 2\*\*64"):
            run_keyring_census(10, 1, trials=2**64 + 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                ExperimentPlan(10, (1,), (0.5,), trials=5, base_seed=seed)
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                run_keyring_census(10, 1, trials=5, base_seed=seed)

    def test_defaults_match_protocol(self):
        assert SWEEP_TRIALS_DEFAULT == 200
        assert CENSUS_TRIALS_DEFAULT == 1000
        assert ExperimentPlan(10, (1,), (1.0,)).trials == 200


# -- exhaustive enumeration ---------------------------------------------------

class TestExhaustiveOracle:
    def test_exact_values(self):
        tables = all_tables(4, 1)

        def share(event):
            return Fraction(sum(event(p) for p in tables), len(tables))

        conn_full = share(lambda p: uf_connected(p, 4))
        conn_half = share(lambda p: uf_connected(p, 2))
        no_iso_half = share(lambda p: mask_isolated(p, 2) == 0)
        node1_iso = share(lambda p: Fraction(mask_isolated(p, 2), 2))  # both deployed nodes alike
        assert conn_full == Fraction(26, 27)
        assert conn_half == Fraction(5, 9)
        assert no_iso_half == Fraction(5, 9)  # at m=2, connected == no isolated
        assert node1_iso == Fraction(4, 9)

    def test_fast_paths_agree_on_all_81_tables(self):
        """connected_at at every view of all 3^4 = 81 tables of n=4, k=1 and
        all 6^5 = 7,776 tables of n=5, k=2 answers as the oracles do."""
        for n, k in ((4, 1), (5, 2)):
            tables = all_tables(n, k)
            ms = range(1, n + 1)
            connected, isolated = connected_at(tables, ms)
            for s, m in enumerate(ms):
                assert connected[s].tolist() == [bfs_connected(p, m) for p in tables]
                assert isolated[s].tolist() == [mask_isolated(p, m) for p in tables]

    def test_monte_carlo_within_three_standard_errors(self):
        trials = 100_000
        plan = ExperimentPlan(4, (1,), (0.5, 1.0), trials=trials, base_seed=7)
        conn, iso, _ = run_sweep(plan)[1]
        for successes, exact in [
            (conn[1], Fraction(26, 27)),
            (conn[0], Fraction(5, 9)),
            (iso[0], Fraction(5, 9)),
        ]:
            p = float(exact)
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(successes / trials - p) < 3 * se
        assert iso[1] == trials  # full graph never has isolated nodes


# -- sweeps --------------------------------------------------------------------

def small_plan(**overrides):
    defaults = dict(n=150, k_values=(2, 3), gammas=(0.5, 1.0), trials=60, base_seed=41)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def as_lists(sweep):
    """A run_sweep result with its count arrays as lists, comparable by ==."""
    return {
        k: (conn.tolist(), no_iso.tolist(), joint) for k, (conn, no_iso, joint) in sweep.items()
    }


def test_sweep_keys_and_types():
    """One entry per k, in the plan's order, each the counts that a run of
    that k alone returns."""
    plan = small_plan(k_values=(3, 2))
    out = run_sweep(plan)
    assert list(out) == [3, 2]
    for k, (conn, no_iso, joint) in out.items():
        assert conn.dtype == no_iso.dtype == np.int64 and type(joint) is int
        assert conn.shape == no_iso.shape == (len(plan.gammas),)
        expected = run_sweep(replace(plan, k_values=(k,)))[k]
        assert np.array_equal(conn, expected[0]) and np.array_equal(no_iso, expected[1])
        assert joint == expected[2]


def test_full_deployment_never_isolated_for_any_k():
    out = run_sweep(small_plan())
    assert out[2][1][1] == 60
    assert out[3][1][1] == 60


@pytest.mark.parametrize(
    "plan",
    [small_plan(), ExperimentPlan(100, (3,), (0.5, 1.0), 50, base_seed=9)],
    ids=["sweep", "phased"],
)
def test_reruns_identically(plan):
    assert as_lists(run_sweep(plan)) == as_lists(run_sweep(plan))


def test_worker_count_does_not_change_results(monkeypatch):
    """Above a shrunk block budget two processes split each k's trials, and
    the counts, sweep and census alike, equal the serial run's."""
    serial = run_sweep(small_plan(workers=1))
    census = run_keyring_census(40, 3, trials=25, base_seed=7)
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 1000)
    monkeypatch.setattr(runner, "_pool_cpus", lambda: 2)
    assert as_lists(run_sweep(small_plan(workers=2))) == as_lists(serial)
    pooled = run_keyring_census(40, 3, trials=25, base_seed=7, workers=2)
    assert all(np.array_equal(a, b) for a, b in zip(pooled, census))
    assert len(forked) == 2
    assert_no_child_left()


def fake_runner(monkeypatch, cpus):
    """Replace the runner by one that records each run's calls and width
    and returns zero counts, so no call runs and nothing forks, on `cpus`
    usable CPUs."""
    runs = []

    def record(calls, width):
        runs.append((calls, width))
        return [(np.zeros(2, dtype=np.int64),) * 2 + (0,)] * len(calls)

    monkeypatch.setattr(runner, "run", record)
    monkeypatch.setattr(runner, "_pool_cpus", lambda: cpus)
    return runs


class BlockRef(weakref.ref):
    """A weak reference to a drawn block that keeps the block's shape."""

    def __init__(self, block):
        super().__init__(block)
        self.shape = block.shape


def record_draws(monkeypatch, name="sample_pairing_block", calls=None, alone=False):
    """Replace sampling.<name> by a wrapper that delegates to it and records
    each call in `calls`, a new list unless one is given, which it returns:
    (the call's arguments, a BlockRef to the block it returned).  With
    alone, each call first asserts that no block in `calls` is alive."""
    calls = [] if calls is None else calls
    draw = getattr(sampling, name)

    def recorded(*args):
        if alone:
            assert all(ref() is None for _, ref in calls), "previous block still alive"
        block = draw(*args)
        calls.append((args, BlockRef(block)))
        return block

    monkeypatch.setattr(sampling, name, recorded)
    return calls


def test_units_are_trial_ranges_per_worker(monkeypatch):
    """A wide run has one call per process and k, each one contiguous trial
    range of its k, in the order of the k values: the call list follows the
    width and the k values, not the trials."""
    runs = fake_runner(monkeypatch, 8)
    run_sweep(ExperimentPlan(1000, (5, 3), (0.5, 1.0), 10**12, workers=4))
    quarter = 10**12 // 4
    calls, width = runs[-1]
    assert width == 4
    assert [u.args[1:] for u in calls] == [(k, i * quarter, (i + 1) * quarter, 4) for k in (5, 3) for i in range(4)]
    run_keyring_census(1000, 24, 10**12, workers=3)
    calls, width = runs[-1]
    assert width == 3
    assert [u.args[-3:] for u in calls] == [
        (0, 333333333333, 3), (333333333333, 666666666666, 3), (666666666666, 10**12, 3)
    ]


def test_run_within_one_block_starts_no_pool(monkeypatch):
    """trials * rows * sum(k) at the budget is one call per k, run in this
    process; one more trial's worth of entries makes it a run of width 4,
    four calls per k."""
    runs = fake_runner(monkeypatch, 8)
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 40 * 50 * 5)
    run_sweep(ExperimentPlan(100, (2, 3), (0.25, 0.5), 40, workers=4))
    run_sweep(ExperimentPlan(100, (2, 3), (0.25, 0.5), 41, workers=4))
    run_keyring_census(50, 5, 40, workers=4)
    run_keyring_census(50, 5, 41, workers=4)
    assert [(width, len(calls)) for calls, width in runs] == [(1, 2), (4, 8), (1, 1), (4, 4)]


def test_pool_is_no_wider_than_the_budget_splits(monkeypatch):
    """A run holds at most one widest table per process within the budget,
    as blocks shrink only to one trial, so the blocks in flight never pass
    it: at n = 1e6 and K = 40 one trial's table is past the budget, and the
    run is serial whatever the workers and CPUs."""
    runs = fake_runner(monkeypatch, 16)
    run_sweep(ExperimentPlan(10**6, (40,), (0.5, 1.0), 4, workers=16))
    run_keyring_census(10**6, 40, 4, workers=16)
    assert [width for _, width in runs] == [1, 1]
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 1000)
    for k_values, width in (((2, 3), 3), ((3, 2), 3), ((2, 4), 2), ((2, 6), 1)):
        run_sweep(ExperimentPlan(100, k_values, (0.5, 1.0), 10**6, workers=16))
        assert runs[-1][1] == width
    for k, width in ((3, 3), (5, 2), (9, 1)):
        run_keyring_census(100, k, 10**6, workers=16)
        assert runs[-1][1] == width


def test_pool_census_blocks_shrink_by_the_width(monkeypatch):
    """A census worker's blocks are one draw chunk, or 1/width of the budget
    where that is smaller, and never less than one trial."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 6 * 20 * 3)
    monkeypatch.setattr(sampling, "_CHUNK", 4 * 20)
    calls = record_draws(monkeypatch, "draw_pairing_block")
    for width in (1, 2, 3, 7):
        montecarlo._count_rings(20, 3, 4, 0, 9, width)
    shapes = [ref.shape for _, ref in calls]
    assert shapes == [(4, 20, 3)] * 2 + [(1, 20, 3)] + [(3, 20, 3)] * 3 + [(2, 20, 3)] * 4 + [(1, 20, 3)] + [(1, 20, 3)] * 9


def test_pool_blocks_shrink_by_the_width(monkeypatch):
    """Each worker's blocks hold 1/width of a serial block, so the blocks in
    flight across the pool hold no more than one serial block."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 12 * 30 * 3)
    calls = record_draws(monkeypatch)
    plan = ExperimentPlan(50, (3,), (0.2, 0.6), 14, base_seed=4)
    run_sweep(plan)
    montecarlo._count_deployments(plan, 3, 0, 7, 3, (3, 3))
    shapes = [ref.shape for _, ref in calls]
    assert shapes == [(12, 30, 3), (2, 30, 3), (4, 30, 3), (3, 30, 3)]


def usable_cpus(monkeypatch, platform, cpus):
    """Pretend to run on `platform`, on the CPU set `cpus` of a 16-CPU host."""
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


# table entries past one serial block, so that a run may be wider than 1
PAST_ONE_BLOCK = montecarlo._BLOCK_BUDGET + 1


def test_default_workers_follow_the_cpu_set_and_platform(monkeypatch):
    """A run past one serial block at the command line's default width is
    one process per CPU this process may use, up to the measured width of
    2, on Linux; one elsewhere.  Nothing is started."""
    assert montecarlo.WORKERS_DEFAULT == 2
    for platform, cpus, workers in (
        ("linux", {0, 2, 5}, 2),
        ("linux", {3}, 1),
        ("darwin", {0, 2, 5}, 1),
        ("win32", {0, 2, 5}, 1),
    ):
        usable_cpus(monkeypatch, platform, cpus)
        assert _width(montecarlo.WORKERS_DEFAULT, 10**6, PAST_ONE_BLOCK, 1) == workers
    assert_no_child_left()


def test_pool_size_is_clamped(monkeypatch):
    """The width of a run past one serial block, of one-entry tables, never
    outgrows the workers asked for, the trials or the usable CPUs; nothing
    is started."""
    usable_cpus(monkeypatch, "linux", {0, 1, 2, 3})
    assert _width(1, 25, PAST_ONE_BLOCK, 1) == 1
    assert _width(3, 25, PAST_ONE_BLOCK, 1) == 3
    assert _width(10_000, 25, PAST_ONE_BLOCK, 1) == 4
    assert _width(10_000, 2, PAST_ONE_BLOCK, 1) == 2
    assert _width(8, 1, PAST_ONE_BLOCK, 1) == 1
    usable_cpus(monkeypatch, "darwin", {0, 1, 2, 3})
    assert _width(10_000, 25, PAST_ONE_BLOCK, 1) == 1


def test_both_clamps_count_the_cpus_this_process_may_use(monkeypatch):
    """An explicit --workers is clamped by the same CPU set as the default:
    8 asked for under a 2-CPU affinity mask on a 16-CPU host run as 2, and
    as 1 off Linux.  Nothing is started."""
    usable_cpus(monkeypatch, "linux", {4, 9})
    default = montecarlo.WORKERS_DEFAULT
    assert _width(default, 10**6, PAST_ONE_BLOCK, 1) == _width(8, 10**6, PAST_ONE_BLOCK, 1) == 2
    usable_cpus(monkeypatch, "darwin", {4, 9})
    assert _width(default, 10**6, PAST_ONE_BLOCK, 1) == _width(8, 10**6, PAST_ONE_BLOCK, 1) == 1
    assert_no_child_left()


def test_different_seed_changes_something():
    # Compare raw per-trial outcomes: aggregate counts can collide by chance.
    plans = [ExperimentPlan(150, (1,), (1.0,), 60, base_seed=seed) for seed in (0, 42)]
    (a, _), (b, _) = (per_trial_outcomes(plan, 1) for plan in plans)
    assert not np.array_equal(a, b)
    for plan, rows in zip(plans, (a, b)):
        assert run_sweep(plan)[1][0].tolist() == rows.sum(axis=1).tolist()


def test_coupled_gammas_share_tables():
    """A sweep over two fractions and two single-fraction sweeps must see
    identical per-gamma outcomes, because tables depend only on (seed, k)."""
    both = run_sweep(small_plan())
    lo = run_sweep(small_plan(gammas=(0.5,)))
    hi = run_sweep(small_plan(gammas=(1.0,)))
    for curve in (0, 1):  # connected, no_isolated
        assert both[2][curve][0] == lo[2][curve][0]
        assert both[3][curve][1] == hi[3][curve][0]


def test_fractions_that_floor_to_one_view_get_equal_rows():
    """0.5 and 0.505 of n=100 both deploy 50 nodes; their counts match each
    other and the single-fraction plan's, and the repeated view leaves the
    all-phases count as it was."""
    conn, no_iso, joint = run_sweep(ExperimentPlan(100, (2,), (0.5, 0.505, 1.0), 40, base_seed=5))[2]
    one = run_sweep(ExperimentPlan(100, (2,), (0.5,), 40, base_seed=5))[2]
    two = run_sweep(ExperimentPlan(100, (2,), (0.5, 1.0), 40, base_seed=5))[2]
    assert conn[0] == conn[1] == one[0][0] and no_iso[0] == no_iso[1] == one[1][0]
    assert joint == two[2]


def test_counts_are_sums_of_per_trial_outcomes(monkeypatch):
    """Over blocks that split the trials, and with two fractions of one view
    size, the counts are the sums of the per-trial outcomes drawn here."""
    plan = ExperimentPlan(100, (4,), (0.3, 0.5, 0.505, 1.0), 40, base_seed=8)
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 6 * 100 * 4)
    connected, isolated = per_trial_outcomes(plan, 4)
    calls = record_draws(monkeypatch)
    conn, no_iso, joint = run_sweep(plan)[4]
    assert len(calls) == 7
    assert conn.tolist() == connected.sum(axis=1).tolist()
    assert no_iso.tolist() == (isolated == 0).sum(axis=1).tolist()
    assert joint == connected.all(axis=0).sum()
    # the three counts differ, and none is 0 or all 40 throughout
    assert 0 < joint < conn[1] < 40 and no_iso[0] != conn[0]


def test_isolated_mean_matches_first_moment():
    """Sample mean of the isolated count vs the exact expectation, 3 SE."""
    n, k, g, trials = 400, 2, 0.5, 10_000
    _, isolated = per_trial_outcomes(ExperimentPlan(n, (k,), (g,), trials, base_seed=10), k)
    counts = isolated[0].astype(np.float64)
    expected = theory.expected_isolated(n, k, g)
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - expected) < 3 * se


def test_block_partition_does_not_change_records(monkeypatch):
    """A budget that splits every cell into several blocks reproduces the
    single-block counts exactly, and both are the sums of the per-trial
    outcomes drawn here."""
    plan = ExperimentPlan(80, (3,), (0.2, 0.5, 1.0), 40, base_seed=8)
    whole = run_sweep(plan)[3]
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 6 * 80 * 3)
    split = run_sweep(plan)[3]
    connected, isolated = per_trial_outcomes(plan, 3)
    sums = (connected.sum(axis=1), (isolated == 0).sum(axis=1), connected.all(axis=0).sum())
    for a, b, c in zip(whole, split, sums):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_only_the_deployed_rows_are_drawn(monkeypatch):
    """Blocks hold the rows of the largest view, and are sized by them:
    four 30-row tables fit the budget, where only two 50-row ones would."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 4 * 30 * 3)
    calls = record_draws(monkeypatch)
    run_sweep(ExperimentPlan(50, (3,), (0.2, 0.6), 9, base_seed=4))
    shapes = [ref.shape for _, ref in calls]
    assert shapes == [(4, 30, 3), (4, 30, 3), (1, 30, 3)]


def test_one_block_alive_at_a_time(monkeypatch):
    """Block loops drop each block before drawing the next.  Two live
    ~32 MB blocks fragmented the malloc heap, and peak RSS of the same
    census swung by ~25 MB from one process to the next.  The sweep
    draws sorted blocks of two trials under its budget, the census
    unsorted blocks of one two-trial draw chunk."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 2 * 10 * 3)
    monkeypatch.setattr(sampling, "_CHUNK", 2 * 10)
    drawn = record_draws(monkeypatch, alone=True)
    run_sweep(ExperimentPlan(10, (3,), (0.5, 1.0), 7, base_seed=2))
    # recorded only now, as sample_pairing_block draws through it
    record_draws(monkeypatch, "draw_pairing_block", drawn, alone=True)
    run_keyring_census(10, 3, trials=7, base_seed=2)
    assert len(drawn) == 8


class FirstDraw(Exception):
    pass


def first_draw(*args):
    raise FirstDraw


def test_blocks_are_sized_lazily(monkeypatch):
    """A census steps its block starts without listing them: one of 10**12
    trials reaches its first draw having allocated almost nothing.  (Its
    trials are checked before any block is sized, see test_census_domain.)"""
    monkeypatch.setattr(sampling, "draw_pairing_block", first_draw)
    tracemalloc.start()
    try:
        with pytest.raises(FirstDraw):
            run_keyring_census(1000, 24, 10**12, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sweep_memory_does_not_grow_with_trials(monkeypatch):
    """A sweep keeps counts, not per-trial outcomes: the traced peak of a
    four-fraction plan before its first draw is the same at 10**3 and
    10**6 trials (per-trial arrays would take 36 MB at 10**6)."""
    monkeypatch.setattr(sampling, "sample_pairing_block", first_draw)
    peaks = []
    for trials in (10**3, 10**6):
        plan = ExperimentPlan(1000, (24,), (0.25, 0.5, 0.75, 1.0), trials, base_seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(FirstDraw):
                run_sweep(plan)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 50_000


def test_counts_follow_the_fractions():
    """Counts: one entry per fraction, in the order given, and one joint."""
    connected, no_isolated, joint = run_sweep(ExperimentPlan(30, (2,), (0.5, 1.0), 25, base_seed=3))[2]
    assert connected.shape == no_isolated.shape == (2,)
    assert connected.dtype == no_isolated.dtype == np.int64 and type(joint) is int
    assert no_isolated[1] == 25  # gamma = 1.0 never has isolated nodes
    single = run_sweep(ExperimentPlan(30, (2,), (0.5,), 25, base_seed=3))[2]
    assert single[0][0] == connected[0] and single[1][0] == no_isolated[0]


# -- phased deployments ----------------------------------------------------------

def test_single_phase_equals_sweep_cell():
    conn, _, joint = run_sweep(small_plan(k_values=(2,), gammas=(1.0,)))[2]
    assert joint == conn[0]


def test_joint_at_most_every_phase():
    # K large enough that some trials connect at 0.25 (none do at K = 3 or 5)
    plan = ExperimentPlan(300, (7, 8), (0.25, 0.5, 1.0), 100, base_seed=17)
    for conn, _, joint in run_sweep(plan).values():
        assert 0 < joint <= conn.min()


def test_joint_of_one_k_does_not_depend_on_the_other_ks():
    """Tables depend only on (seed, k), so adding a K leaves K=8's joint as it was."""
    both = run_sweep(ExperimentPlan(300, (5, 8), (0.25, 0.5, 1.0), 100, base_seed=17))
    alone = run_sweep(ExperimentPlan(300, (8,), (0.25, 0.5, 1.0), 100, base_seed=17))
    assert both[8][2] == alone[8][2] > 0


# -- ring census -------------------------------------------------------------------

def test_census_conservation():
    """Exact integer conservation: every ring is counted once, the keys of
    all rings number twice the selections (each selection puts its key in
    two rings), and each trial has one largest ring."""
    n, k, trials = 50, 3, 40
    hist, max_hist = run_keyring_census(n, k, trials=trials, base_seed=5)
    assert hist.dtype == max_hist.dtype == np.int64
    assert hist.shape == max_hist.shape == (n + k,)
    sizes = np.arange(n + k)
    assert int(hist.sum()) == trials * n
    assert int((sizes * hist).sum()) == 2 * k * trials * n
    assert int(max_hist.sum()) == trials
    # the largest ring of all is the largest of some trial
    assert np.flatnonzero(hist)[-1] == np.flatnonzero(max_hist)[-1]


def test_census_min_size_at_least_k():
    hist, max_hist = run_keyring_census(80, 4, trials=30, base_seed=2)
    assert np.flatnonzero(hist)[0] >= 4
    assert hist[:4].sum() == max_hist[:4].sum() == 0


def test_census_block_partition_does_not_change_census(monkeypatch):
    """A census binned over several blocks equals the one-block census:
    with a draw chunk of four 40-node trials, 25 trials take 7 blocks."""
    whole = run_keyring_census(40, 3, trials=25, base_seed=7)
    monkeypatch.setattr(sampling, "_CHUNK", 4 * 40)
    recorded = record_draws(monkeypatch, "draw_pairing_block")
    split = run_keyring_census(40, 3, trials=25, base_seed=7)
    calls = [args for args, _ in recorded]
    assert [len(args[1]) for args in calls] == [4] * 6 + [1]
    assert all(np.array_equal(a, b) for a, b in zip(whole, split))


@pytest.mark.parametrize("n, k, trials", [(128, 5, 300), (129, 5, 300), (40_000, 3, 3)])
def test_census_matches_bincount_oracle_over_sorted_blocks(n, k, trials):
    """The census bins unsorted one-chunk blocks; it equals one np.bincount
    per table of the sorted sampler block.  At n=128 (int8) and 129
    (int16) a census block holds 128 and 127 trials, so 300 trials end in
    a short block; at n=40000 each trial's rows span three draw chunks."""
    seed = 13
    block = sampling.sample_pairing_block(sampling.fold(seed, k), range(trials), n, k)
    sizes = ring_sizes(block)
    hist, max_hist = run_keyring_census(n, k, trials, seed)
    assert hist.tolist() == np.bincount(sizes.ravel(), minlength=n + k).tolist()
    assert max_hist.tolist() == np.bincount(sizes.max(axis=1), minlength=n + k).tolist()


def test_census_peak_memory_near_the_sampler_block():
    """_ring_sizes bins a table larger than one call a column group at a
    time, so the census holds one block plus call-sized temporaries: at
    n=2e5, K=40, two trials, its traced peak is within 1.5x of the
    sampler's one-table block's (binning whole tables, copied and widened
    to int64, read 4.06x)."""
    peaks = []
    for run in (
        lambda: sampling.sample_pairing_block(sampling.fold(0, 40), range(1), 200_000, 40),
        lambda: run_keyring_census(200_000, 40, 2),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_sizes_are_checked_before_blocks_are_sized():
    """The census's and the sweep's block sizes divide by n and k; a zero
    is still refused by the run's own check."""
    with pytest.raises(ValueError, match="at least 2 nodes"):
        run_keyring_census(0, 1)
    with pytest.raises(ValueError, match="1 <= k <= n-1"):
        ExperimentPlan(10, (0,), (1.0,), 5)


def test_census_two_node_rings_fill_the_last_bin():
    """n=2, k=1: both nodes select each other, so every ring holds
    k + n - 1 = 2 keys, the last size a ring can have."""
    trials = 9
    hist, max_hist = run_keyring_census(2, 1, trials=trials, base_seed=3)
    assert hist.tolist() == [0, 0, 2 * trials]
    assert max_hist.tolist() == [0, 0, trials]


def test_census_rerun_identical():
    a = run_keyring_census(60, 3, trials=25, base_seed=11)
    b = run_keyring_census(60, 3, trials=25, base_seed=11)
    assert [h.tolist() for h in a] == [h.tolist() for h in b]


def test_census_domain():
    with pytest.raises(ValueError):
        run_keyring_census(1, 1)
    with pytest.raises(ValueError):
        run_keyring_census(10, 0)
    with pytest.raises(ValueError):
        run_keyring_census(10, 1, trials=0)


def test_ring_sizes_concentrate_as_n_grows():
    """With k = ceil(3 ln n), the fraction of rings outside [0.8, 1.2] of
    the expected size 2k must shrink as n grows through 1e3, 1e4, 1e5."""
    outside = []
    for n, trials in [(1_000, 300), (10_000, 40), (100_000, 10)]:
        k = math.ceil(3 * math.log(n))
        hist, _ = run_keyring_census(n, k, trials=trials, base_seed=23)
        sizes = np.arange(len(hist))
        bad = int(hist[(sizes < 1.6 * k) | (sizes > 2.4 * k)].sum())
        outside.append(bad / (trials * n))
    assert outside[0] > outside[1] > outside[2]


@pytest.mark.parametrize("n,trials", [(1_000, 300), (10_000, 60)])
def test_maxring_deviation_frequency_below_analytic_bound(n, trials):
    k = math.ceil(3 * math.log(n))
    t = 2.9 * math.log(n)
    _, max_hist = run_keyring_census(n, k, trials=trials, base_seed=29)
    bad = int(max_hist[np.abs(np.arange(len(max_hist)) - 2 * k) >= t].sum())
    bound = 2 * n ** -theory.decay_exponent(3.0, 2.9)
    assert bad / trials <= bound


# a sweep shape; a phased shape with a one-node view and two fractions of one
# view size, whose band between them is empty; two fractions of one view size
# alone; a full deployment alone, where a two-step prefix joins almost all
PREFIX_PLANS = {
    "sweep": ExperimentPlan(60, (2, 3, 5, 8), (0.3, 0.6, 1.0), 40, base_seed=3),
    "phased": ExperimentPlan(200, (12,), (0.005, 0.25, 0.2525, 1.0), 40, base_seed=11),
    "repeated": ExperimentPlan(100, (2, 5), (0.5, 0.505), 40, base_seed=5),
    "full": ExperimentPlan(100, (6,), (1.0,), 30, base_seed=2),
}

# steps(k, bands) of each band of a first pass: one Floyd step each, two, k
# then one, one step rising by two per band (the last band holds the most),
# k/2, and k, the whole draw
BAND_STEPS = {
    "1": lambda k, bands: (1,) * bands,
    "2": lambda k, bands: (min(2, k),) * bands,
    "k,1": lambda k, bands: (k,) + (1,) * (bands - 1),
    "rising": lambda k, bands: tuple(min(k, 1 + 2 * r) for r in range(bands)),
    "k/2": lambda k, bands: (max(1, k // 2),) * bands,
    "k": lambda k, bands: (k,) * bands,
}


def fixed_steps(monkeypatch, steps):
    """Make every run draw its first pass with steps(k, bands) Floyd steps
    per band."""
    monkeypatch.setattr(montecarlo, "_prefix_steps", lambda n, k, gammas, isolated=None: steps(k, len(gammas)))


def is_refill(trials) -> bool:
    """Whether a sampler call draws for the refill path of
    _count_deployments, which draws again the tables the first pass left
    undecided: it names them by an array of trial ids, where a first pass
    names its consecutive tables by a range."""
    return not isinstance(trials, range)


@pytest.mark.parametrize("width", [1, 2])
def test_prefix_pass_does_not_change_the_counts(monkeypatch, width):
    """With every band's steps of BAND_STEPS, in one process or two, every
    plan's counts equal those of the whole draw, k steps in one process.
    In one process the prefixes of fewer than k steps both leave tables to
    the whole draw and decide others themselves."""
    expected = {}
    for name, plan in PREFIX_PLANS.items():
        fixed_steps(monkeypatch, BAND_STEPS["k"])
        expected[name] = as_lists(run_sweep(plan))
    if width == 2:
        monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 24000)
        monkeypatch.setattr(runner, "_pool_cpus", lambda: 2)
    calls = record_draws(monkeypatch)
    for steps in BAND_STEPS.values():
        fixed_steps(monkeypatch, steps)
        for name, plan in PREFIX_PLANS.items():
            assert as_lists(run_sweep(replace(plan, workers=width))) == expected[name], name
    if width == 1:
        draws = [(args, is_refill(args[1])) for args, _ in calls]
        refilled = sum(len(args[1]) for args, refill in draws if refill)
        assert 0 < refilled < sum(len(args[1]) for args, refill in draws if not refill)
    assert_no_child_left()


def test_refills_read_the_rows_of_the_largest_undecided_view(monkeypatch):
    """A table is drawn again with whole rows below its largest undecided
    view alone, once, in one block with the other tables of that view: here
    a one-step first band leaves the smaller views split in some tables
    that the larger views join, so some refills read fewer rows than the
    largest view."""
    plan = ExperimentPlan(200, (6,), (0.1, 0.3, 1.0), 60, base_seed=5)
    fixed_steps(monkeypatch, lambda k, bands: (1, k, 2))
    draws = record_draws(monkeypatch)
    counts = as_lists(run_sweep(plan))
    refills = [args for args, _ in draws if is_refill(args[1])]
    rows = [args[4].stop for args in refills]
    ids = [int(t) for args in refills for t in args[1]]
    assert set(rows) <= {20, 60, 200} and min(rows) < 200 and len(rows) == len(set(rows))
    assert len(ids) == len(set(ids))
    fixed_steps(monkeypatch, BAND_STEPS["k"])
    assert counts == as_lists(run_sweep(plan))


def test_refills_are_drawn_once_they_fill_a_block(monkeypatch):
    """Tables wait for their refill until a block of them is full, so a run
    holds fewer than two blocks of their answers, whatever its trials: with
    blocks of three tables, refills come between first-pass blocks, none
    of more than three tables."""
    plan = ExperimentPlan(200, (6,), (0.1, 0.3, 1.0), 60, base_seed=5)
    fixed_steps(monkeypatch, lambda k, bands: (1, k, 2))
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 3 * 200 * 6)
    draws = record_draws(monkeypatch)
    counts = as_lists(run_sweep(plan))
    refills = [is_refill(args[1]) for args, _ in draws]
    assert all(len(args[1]) <= 3 for args, _ in draws)
    assert refills.index(True) < len(refills) - 1 - refills[::-1].index(False)
    fixed_steps(monkeypatch, BAND_STEPS["k"])
    assert counts == as_lists(run_sweep(plan))


def test_band_block_sorts_and_pads_each_run():
    """Runs of k steps give the sampler's block of the trial ids, whether
    one run or several; with runs of unequal steps, each band holds its
    rows' sorted prefix of its own steps, then repeats of its last column
    up to the block's most steps."""
    n, k, seed, ids = 128, 6, sampling.fold(3, 6), np.array([2, 5, 6, 11])
    whole = sampling.sample_pairing_block(seed, range(12), n, k, range(90))[ids]
    for runs in ([(0, 90, k)], [(0, 30, k), (30, 90, k)]):
        block = montecarlo._band_block(seed, n, k, ids, runs)
        assert block.dtype == whole.dtype and np.array_equal(block, whole)
    runs = [(0, 30, 2), (30, 64, 5), (64, 90, 1)]
    block = montecarlo._band_block(seed, n, k, ids, runs)
    assert block.shape == (4, 90, 5)
    for lo, hi, c in runs:
        prefix = sampling.sample_pairing_block(seed, range(12), n, k, range(hi), c)[ids, lo:]
        assert np.array_equal(block[:, lo:hi, :c], prefix)
        assert (block[:, lo:hi, c:] == prefix[..., -1:]).all()


def banded_from_whole(whole):
    """A stand-in for sampling.sample_pairing_block that serves the tables
    of `whole`, its rows `rows`, each cut to its `steps` smallest
    partners: a subset of its row, as Floyd's prefix is."""

    def draw(seed, trials, n, k, rows=None, steps=None):
        rows = range(n) if rows is None else rows
        picked = whole[list(trials), rows.start : rows.stop, :steps]
        return np.ascontiguousarray(picked.transpose(2, 0, 1)).transpose(1, 2, 0)

    return draw


@pytest.mark.parametrize("n", [128, 32768])
def test_padded_columns_join_no_view(monkeypatch, n):
    """At n = 128 (int8) and 32768 (int16) the type's largest value is node
    n-1, which the full view deploys.  In these tables the first half of
    the nodes and the second half each form a ring, so the full view is
    split; a first band drawn with one step of two, padded with the largest
    value, would join it through node n-1.  The run counts it split."""
    half, trials = n // 2, 3
    ring = np.arange(half)
    rows = np.sort(np.stack([(ring - 1) % half, (ring + 1) % half], axis=1), axis=1)
    table = np.concatenate([rows, rows + half]).astype(sampling._narrowest_int(n - 1))
    whole = np.repeat(table[None], trials, axis=0)
    assert np.iinfo(whole.dtype).max == n - 1
    padded = whole.copy()
    padded[:, :half, 1] = n - 1
    assert connected_at(padded, (half, n))[0][:, 0].tolist() == [True, True]
    assert connected_at(whole, (half, n))[0][:, 0].tolist() == [True, False]
    monkeypatch.setattr(sampling, "sample_pairing_block", banded_from_whole(whole))
    fixed_steps(monkeypatch, lambda k, bands: (1, 2))
    conn, no_iso, joint = run_sweep(ExperimentPlan(n, (2,), (0.5, 1.0), trials))[2]
    assert conn.tolist() == [trials, 0] and no_iso.tolist() == [trials, trials] and joint == 0


def test_prefix_and_whole_blocks_are_alive_one_at_a_time(monkeypatch):
    """A prefix block is dropped before its undecided tables are drawn
    whole, and that block before the next prefix."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 2 * 60 * 6)
    fixed_steps(monkeypatch, lambda k, bands: (3,) * bands)
    drawn = record_draws(monkeypatch, alone=True)
    run_sweep(ExperimentPlan(60, (6,), (0.5, 1.0), 9, base_seed=2))
    whole = [is_refill(args[1]) for args, _ in drawn]
    assert whole.count(False) == 5 and whole.count(True) > 0


def test_prefix_policy_is_asked_once_per_k_in_the_calling_process(monkeypatch):
    """The policy runs here, once per k in the plan's order, before any
    share forks: a call in a child would fail the run."""
    caller, asked = os.getpid(), []

    def policy(n, k, gammas, isolated):
        assert os.getpid() == caller
        asked.append(k)
        return (max(2, k // 2),) * len(gammas)

    monkeypatch.setattr(montecarlo, "_prefix_steps", policy)
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 2000)
    monkeypatch.setattr(runner, "_pool_cpus", lambda: 2)
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    run_sweep(small_plan(k_values=(5, 3, 4), workers=2))
    assert asked == [5, 3, 4] and forked == [1]
    assert_no_child_left()


def isolated_memo(n):
    """theory.expected_isolated at n, memoized, as run_sweep passes it to
    the prefix policy for all its k."""
    return cache(partial(theory.expected_isolated, n))


def test_prefix_policy_never_raises_on_small_networks():
    """For n = 2..30, every k and schedules from one-node views up to full
    deployment, the policy answers, for each band, k or a prefix of
    2..k-1 steps."""
    for n in range(2, 31):
        for gammas in ((1.0,), (0.5,), (1 / n, 1.0), (1 / n, 2 / n, 0.5), (0.1, 0.3, 0.7, 1.0), (0.9,)):
            try:
                ExperimentPlan(n, (1,), gammas)
            except ValueError:
                continue  # a fraction of no node at this n
            isolated = isolated_memo(n)
            for k in range(1, n):
                steps = montecarlo._prefix_steps(n, k, gammas, isolated)
                assert len(steps) == len(gammas), (n, k, gammas, steps)
                assert all(c == k or 2 <= c < k for c in steps), (n, k, gammas, steps)


# the README's sweep and phased run, which the benchmark runs, and the sweep
# of the same n at fractions 0.25..1.0
BENCH_SWEEP = (1000, range(1, 26), (0.2, 0.4, 0.6, 0.8))
BENCH_PHASED = (2000, (37,), (0.25, 0.5, 1.0))
QUARTER_SWEEP = (1000, range(1, 26), (0.25, 0.5, 0.75, 1.0))


def test_prefix_policy_on_the_benchmarked_shapes():
    """The first band takes k on every K of both sweeps of n=1000, where a
    single prefix would not pay, and later bands take prefixes from K=15
    on the benchmarked sweep and K=11 at fractions 0.25..1.0; at n=2000,
    K=37, the phased schedule takes 17, 9 and 2 steps, and each of its
    fractions alone a prefix."""
    n, ks, gammas = BENCH_SWEEP
    isolated = isolated_memo(n)
    bands = [montecarlo._prefix_steps(n, k, gammas, isolated) for k in ks]
    assert [b[0] for b in bands] == list(ks)
    assert bands[:14] == [(k,) * 4 for k in range(1, 15)]
    assert bands[14] == (15, 15, 15, 4) and bands[24] == (25, 10, 7, 5)
    n, ks, gammas = QUARTER_SWEEP
    isolated = isolated_memo(n)
    bands = [montecarlo._prefix_steps(n, k, gammas, isolated) for k in ks]
    assert [b[0] for b in bands] == list(ks)
    assert bands[:10] == [(k,) * 4 for k in range(1, 11)] and bands[10] == (11, 11, 11, 2)
    isolated = isolated_memo(2000)
    assert montecarlo._prefix_steps(2000, 37, (0.25, 0.5, 1.0), isolated) == (17, 9, 2)
    for gammas in ((0.25,), (0.5,), (1.0,)):
        (steps,) = montecarlo._prefix_steps(2000, 37, gammas, isolated)
        assert 2 <= steps < 37


# "K" stands for a band drawn whole
K = "K"

# (n, schedule, [(first K, last K, steps per band)]) of the benchmarked runs and
# of the deployment runs of CI's cmp loop, as the policy chose them before it
# priced every affordable c; the steps decide only speed, so a change to them is
# seen here or nowhere
PINNED_STEPS = {
    "bench_sweep": (1000, (0.2, 0.4, 0.6, 0.8), [
        (1, 14, (K, K, K, K)),
        (15, 15, (K, K, K, 4)),
        (16, 17, (K, K, K, 5)),
        (18, 21, (K, K, 7, 5)),
        (22, 25, (K, 10, 7, 5)),
    ]),
    "quarter_sweep": (1000, (0.25, 0.5, 0.75, 1.0), [
        (1, 10, (K, K, K, K)),
        (11, 14, (K, K, K, 2)),
        (15, 19, (K, K, 5, 2)),
        (20, 25, (K, 8, 5, 2)),
    ]),
    "bench_phased": (2000, (0.25, 0.5, 1.0), [
        (37, 37, (17, 9, 2)),
    ]),
    "ci_128": (128, (0.25, 0.5, 1.0), [
        (8, 10, (K, K, K)),
        (11, 16, (K, K, 2)),
        (17, 24, (K, 6, 2)),
        (25, 25, (11, 7, 2)),
        (26, 40, (12, 7, 2)),
    ]),
    "ci_300": (300, (0.25, 0.5, 1.0), [
        (15, 17, (K, K, 2)),
        (18, 26, (K, 7, 2)),
        (27, 32, (13, 7, 2)),
        (33, 40, (14, 8, 2)),
    ]),
    "ci_5000": (5000, (0.1, 0.3, 0.6, 1.0), [
        (40, 40, (K, 16, 8, 2)),
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED_STEPS))
def test_prefix_policy_keeps_its_pinned_steps(name):
    """Every K of each pinned run takes its pinned steps per band."""
    n, gammas, rows = PINNED_STEPS[name]
    isolated = isolated_memo(n)
    for first, last, steps in rows:
        for k in range(first, last + 1):
            expected = tuple(k if c == K else c for c in steps)
            assert montecarlo._prefix_steps(n, k, gammas, isolated) == expected, (name, k)


@pytest.mark.parametrize("shape", [BENCH_SWEEP, BENCH_PHASED], ids=["sweep", "phased"])
def test_prefix_policy_prices_each_term_once_per_run(monkeypatch, shape):
    """A run prices each (c, gamma) term once for all its k and bands:
    on the benchmarked sweep and phased plans, theory.expected_isolated
    is called, and never twice with the same arguments."""
    calls = []
    isolated = theory.expected_isolated
    monkeypatch.setattr(theory, "expected_isolated", lambda *args: calls.append(args) or isolated(*args))
    n, ks, gammas = shape
    run_sweep(ExperimentPlan(n, tuple(ks), gammas, 1))
    assert 0 < len(calls)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize(
    "text, quota",
    [
        ("max 100000\n", None),
        ("100000 100000\n", 1),
        ("150000 100000\n", 2),
        ("50000 100000\n", 1),
        ("800000 100000\n", 8),
        ("", None),
        ("max\n", None),
        ("lots 100000\n", None),
        ("100000 0\n", None),
        (None, None),
    ],
    ids=[
        "unlimited", "one", "one_and_a_half", "half", "eight",
        "empty", "no_period", "not_a_number", "zero_period", "missing",
    ],
)
def test_cgroup_quota_caps_the_cpus(monkeypatch, tmp_path, text, quota):
    """The cgroup v2 quota, rounded up to whole CPUs, caps the CPU set of
    this process; no quota, or a cpu.max that is missing or unreadable,
    leaves the set as it is."""
    path = tmp_path / "cpu.max"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(runner, "_CPU_MAX", str(path))
    assert runner._cpu_quota() == quota
    usable_cpus(monkeypatch, "linux", set(range(4)))
    assert runner._pool_cpus() == min(4, quota or 4)
    assert _width(montecarlo.WORKERS_DEFAULT, 10**6, PAST_ONE_BLOCK, 1) == min(2, quota or 2)


def test_cgroup_quota_narrows_the_pool(monkeypatch, tmp_path):
    """On four usable CPUs, a quota of one CPU runs a run that asks for
    four processes in this one, and a quota of two forks one child."""
    path = tmp_path / "cpu.max"
    monkeypatch.setattr(runner, "_CPU_MAX", str(path))
    usable_cpus(monkeypatch, "linux", set(range(4)))
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 1000)
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    serial = as_lists(run_sweep(small_plan()))
    for text, children in (("100000 100000", 0), ("200000 100000", 1)):
        path.write_text(text)
        forked.clear()
        assert as_lists(run_sweep(small_plan(k_values=(2, 3), workers=4))) == serial
        assert len(forked) == children
    assert_no_child_left()
