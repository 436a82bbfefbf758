"""Experiment harness: Wilson intervals, sweep coupling, censuses, and the
exhaustive small-instance oracle.

The n=4, k=1 scheme has exactly 3^4 = 81 equally likely pairing tables, so
every probability is computable by brute force with an in-test DFS that
shares no code with the library.  Monte Carlo estimates must land within
3 standard errors of those exact values.
"""

import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from pairdeploy import (
    DeploymentSchedule,
    Estimate,
    ExperimentPlan,
    estimate_from,
    run_keyring_census,
    run_phased_detail,
    run_sweep,
    theory,
    wilson_interval,
)
from pairdeploy import montecarlo, sampling
from pairdeploy.graphs import connected_at
from pairdeploy.montecarlo import (
    CENSUS_TRIALS_DEFAULT,
    SWEEP_TRIALS_DEFAULT,
    _pool_size,
    evaluate_deployments,
)


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

    @pytest.mark.parametrize("successes", [0, 1, 57, 199, 200])
    def test_estimate_ordering(self, successes):
        est = estimate_from(successes, 200)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
        assert est.p_hat == successes / 200


class TestValidation:
    def test_schedule_must_increase(self):
        DeploymentSchedule((0.25, 0.5, 1.0))
        DeploymentSchedule((1.0,))
        with pytest.raises(ValueError):
            DeploymentSchedule(())
        with pytest.raises(ValueError):
            DeploymentSchedule((0.5, 0.25))
        with pytest.raises(ValueError):
            DeploymentSchedule((0.5, 0.5))
        with pytest.raises(ValueError):
            DeploymentSchedule((0.0, 0.5))
        with pytest.raises(ValueError):
            DeploymentSchedule((0.5, 1.2))

    def test_plan_validation(self):
        ExperimentPlan(10, (1, 2), (0.5, 1.0), trials=5)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (), (0.5,), trials=5)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (10,), (0.5,), trials=5)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (1,), (0.5,), trials=0)
        with pytest.raises(ValueError):
            ExperimentPlan(10, (1,), (0.05,), trials=5)  # floor(gamma*n) = 0
        with pytest.raises(ValueError):
            ExperimentPlan(10, (1,), (0.5,), trials=5, workers=0)

    def test_defaults_match_protocol(self):
        assert SWEEP_TRIALS_DEFAULT == 200
        assert CENSUS_TRIALS_DEFAULT == 1000
        assert ExperimentPlan(10, (1,), (1.0,)).trials == 200


# -- exhaustive oracle for n=4, k=1 -------------------------------------------

def all_tables_n4():
    """All 81 partner arrays: each node picks one of its 3 non-self ids."""
    for choice in itertools.product(range(3), repeat=4):
        yield np.array(
            [[c if c < i else c + 1] for i, c in enumerate(choice)], dtype=np.int64
        )


def dfs_connected(partners: np.ndarray, m: int) -> bool:
    adj = {i: set() for i in range(m)}
    for i in range(m):
        for j in partners[i]:
            if j < m:
                adj[i].add(int(j))
                adj[int(j)].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == m


def dfs_isolated(partners: np.ndarray, m: int) -> int:
    touched = set()
    for i in range(m):
        for j in partners[i]:
            if j < m:
                touched.update((i, int(j)))
    return m - len(touched)


def exhaustive_probabilities():
    conn_full = conn_half = no_iso_half = node1_iso = 0
    for partners in all_tables_n4():
        conn_full += dfs_connected(partners, 4)
        conn_half += dfs_connected(partners, 2)
        no_iso_half += dfs_isolated(partners, 2) == 0
        node1_iso += int(partners[0, 0]) != 1 and int(partners[1, 0]) != 0
    return (
        Fraction(conn_full, 81),
        Fraction(conn_half, 81),
        Fraction(no_iso_half, 81),
        Fraction(node1_iso, 81),
    )


class TestExhaustiveOracle:
    def test_exact_values(self):
        conn_full, conn_half, no_iso_half, node1_iso = exhaustive_probabilities()
        assert conn_full == Fraction(26, 27)
        assert conn_half == Fraction(5, 9)
        assert no_iso_half == Fraction(5, 9)  # at m=2, connected == no isolated
        assert node1_iso == Fraction(4, 9)

    def test_first_moment_formula_agrees(self):
        _, _, _, node1_iso = exhaustive_probabilities()
        assert math.isclose(
            theory.isolation_prob_exact(4, 1, 0.5), float(node1_iso), rel_tol=1e-12
        )

    def test_fast_paths_agree_on_all_81_tables(self):
        tables = list(all_tables_n4())
        block = np.stack(tables)
        for m in (1, 2, 3, 4):
            assert connected_at(block, m)[0].tolist() == [dfs_connected(p, m) for p in tables]
            assert connected_at(block, m)[1].tolist() == [dfs_isolated(p, m) for p in tables]

    def test_monte_carlo_within_three_standard_errors(self):
        trials = 100_000
        plan = ExperimentPlan(4, (1,), (0.5, 1.0), trials=trials, base_seed=7)
        sweep = run_sweep(plan)
        conn, iso = sweep["connected"], sweep["no_isolated"]
        for est, exact in [
            (conn[(1.0, 1)], Fraction(26, 27)),
            (conn[(0.5, 1)], Fraction(5, 9)),
            (iso[(0.5, 1)], Fraction(5, 9)),
        ]:
            p = float(exact)
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(est.p_hat - p) < 3 * se
        assert iso[(1.0, 1)].p_hat == 1.0  # full graph never has isolated nodes


# -- sweeps --------------------------------------------------------------------

def small_plan(**overrides):
    defaults = dict(n=150, k_values=(2, 3), gammas=(0.5, 1.0), trials=60, base_seed=41)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def test_sweep_keys_and_types():
    plan = small_plan()
    out = run_sweep(plan)
    assert list(out) == ["connected", "no_isolated"]
    for curve in out.values():
        assert set(curve) == {(g, k) for g in plan.gammas for k in plan.k_values}
        assert all(isinstance(v, Estimate) for v in curve.values())


def test_full_deployment_never_isolated_for_any_k():
    out = run_sweep(small_plan())["no_isolated"]
    assert out[(1.0, 2)].p_hat == 1.0
    assert out[(1.0, 3)].p_hat == 1.0


def test_sweep_reruns_identically():
    assert run_sweep(small_plan()) == run_sweep(small_plan())


def test_worker_count_does_not_change_results():
    serial = run_sweep(small_plan(workers=None))
    parallel = run_sweep(small_plan(workers=2))
    assert serial == parallel


def test_pool_size_is_clamped(monkeypatch):
    """The pool never outgrows the cells or the CPUs; nothing is started."""
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _pool_size(None, 25) == 1
    assert _pool_size(1, 25) == 1
    assert _pool_size(3, 25) == 3
    assert _pool_size(10_000, 25) == 4
    assert _pool_size(10_000, 2) == 2
    assert _pool_size(8, 1) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(10_000, 25) == 1


def test_different_seed_changes_something():
    # Compare raw per-trial outcomes: aggregate counts can collide by chance.
    a, _ = evaluate_deployments(150, 1, (1.0,), 60, base_seed=0)
    b, _ = evaluate_deployments(150, 1, (1.0,), 60, base_seed=42)
    assert not np.array_equal(a, b)


def test_coupled_gammas_share_tables():
    """A sweep over two fractions and two single-fraction sweeps must see
    identical per-gamma outcomes, because tables depend only on (seed, k)."""
    both = run_sweep(small_plan())
    lo = run_sweep(small_plan(gammas=(0.5,)))
    hi = run_sweep(small_plan(gammas=(1.0,)))
    for kind in ("connected", "no_isolated"):
        assert both[kind][(0.5, 2)] == lo[kind][(0.5, 2)]
        assert both[kind][(1.0, 3)] == hi[kind][(1.0, 3)]


def test_isolated_mean_matches_first_moment():
    """Sample mean of the isolated count vs the exact expectation, 3 SE."""
    n, k, g, trials = 400, 2, 0.5, 10_000
    _, isolated = evaluate_deployments(n, k, (g,), trials, base_seed=10)
    counts = isolated[0].astype(np.float64)
    expected = theory.expected_isolated(n, k, g)
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - expected) < 3 * se


def test_block_partition_does_not_change_records(monkeypatch):
    """A budget that splits every cell into several blocks reproduces the
    single-block outcomes exactly."""
    gammas = (0.2, 0.5, 1.0)
    whole = evaluate_deployments(80, 3, gammas, 40, base_seed=8)
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 6 * 80 * 3)
    split = evaluate_deployments(80, 3, gammas, 40, base_seed=8)
    for a, b in zip(whole, split):
        assert np.array_equal(a, b)


def test_one_block_alive_at_a_time(monkeypatch):
    """Block loops drop each block before drawing the next.  Two live
    ~32 MB blocks fragmented the malloc heap, and peak RSS of the same
    census swung by ~25 MB from one process to the next."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 2 * 10 * 3)
    drawn = []
    draw = sampling.sample_pairing_block

    def tracked(*args):
        assert all(ref() is None for ref in drawn), "previous block still alive"
        block = draw(*args)
        drawn.append(weakref.ref(block))
        return block

    monkeypatch.setattr(sampling, "sample_pairing_block", tracked)
    evaluate_deployments(10, 3, (0.5, 1.0), 7, base_seed=2)
    run_keyring_census(10, 3, trials=7, base_seed=2)
    assert len(drawn) == 8


def test_trial_record_shape():
    """Per-trial outcomes: one row per fraction, in the order given."""
    connected, isolated = evaluate_deployments(30, 2, (0.5, 1.0), 25, base_seed=3)
    assert connected.shape == isolated.shape == (2, 25)
    assert connected.dtype == bool and isolated.dtype == np.int64
    assert isolated[1].sum() == 0  # gamma = 1.0 never has isolated nodes
    single, _ = evaluate_deployments(30, 2, (0.5,), 25, base_seed=3)
    assert np.array_equal(single[0], connected[0])


# -- phased deployments ----------------------------------------------------------

def test_single_phase_equals_sweep_cell():
    est, _ = run_phased_detail(150, 2, DeploymentSchedule((1.0,)), 60, base_seed=41)
    sweep = run_sweep(small_plan(k_values=(2,), gammas=(1.0,)))
    assert est == sweep["connected"][(1.0, 2)]


def test_joint_at_most_every_phase():
    joint, phases = run_phased_detail(
        300, 5, DeploymentSchedule((0.25, 0.5, 1.0)), 100, base_seed=17
    )
    assert set(phases) == {0.25, 0.5, 1.0}
    for est in phases.values():
        assert joint.successes <= est.successes
    assert joint.trials == 100


def test_phased_rerun_identical():
    sched = DeploymentSchedule((0.5, 1.0))
    a = run_phased_detail(100, 3, sched, 50, base_seed=9)
    b = run_phased_detail(100, 3, sched, 50, base_seed=9)
    assert a == b


# -- ring census -------------------------------------------------------------------

def test_census_conservation():
    census = run_keyring_census(50, 3, trials=40, base_seed=5)
    assert sum(census.histogram.values()) == 40 * 50
    assert sum(census.max_histogram.values()) == 40
    assert census.largest == max(census.histogram)
    assert max(census.max_histogram) == census.largest
    assert math.isclose(census.mean_size, 2 * 3, rel_tol=1e-12)


def test_census_rings_at_exactly_3k_do_not_count_as_over():
    # n=3, k=1: the largest possible ring is 1 + 2 = 3 = 3k
    census = run_keyring_census(3, 1, trials=200, base_seed=1)
    assert census.largest <= 3
    assert census.frac_over_3k == 0.0


def test_census_min_size_at_least_k():
    census = run_keyring_census(80, 4, trials=30, base_seed=2)
    assert min(census.histogram) >= 4


def test_census_rerun_identical():
    a = run_keyring_census(60, 3, trials=25, base_seed=11)
    b = run_keyring_census(60, 3, trials=25, base_seed=11)
    assert a == b


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
        census = run_keyring_census(n, k, trials=trials, base_seed=23)
        bad = sum(
            count
            for size, count in census.histogram.items()
            if size < 1.6 * k or size > 2.4 * k
        )
        outside.append(bad / (trials * n))
    assert outside[0] > outside[1] > outside[2]


@pytest.mark.parametrize("n,trials", [(1_000, 300), (10_000, 60)])
def test_maxring_deviation_frequency_below_analytic_bound(n, trials):
    k = math.ceil(3 * math.log(n))
    t = 2.9 * math.log(n)
    census = run_keyring_census(n, k, trials=trials, base_seed=29)
    bad = sum(
        count for size, count in census.max_histogram.items() if abs(size - 2 * k) >= t
    )
    bound = theory.maxring_tail_bound_scaled(n, 3.0, 2.9)
    assert bad / trials <= bound
