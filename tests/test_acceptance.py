"""End-to-end statistical acceptance runs at desk scale.

One test per claim, in fixed order, each printing the measured numbers
it judges so a verbose run reads as a checklist.  All runs use the same
seed as the command-line default, so every number here can be reproduced
with the `pairdeploy` tool.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pairdeploy import montecarlo, sampling, theory
from pairdeploy.montecarlo import ExperimentPlan, run_sweep
from pairing_fixtures import per_trial_outcomes

SEED = 1729
N = 1000
TRIALS = 200
LOG_N = math.log(N)

GAMMAS = (0.2, 0.4, 0.6, 0.8)


def k_star(gamma: float) -> float:
    """Asymptotic (leading-order) connectivity threshold in k for a partial deployment."""
    return theory.isolation_threshold(gamma) * LOG_N / gamma


def k_grid(gamma: float) -> range:
    """Half to one-and-a-half times the predicted threshold, inclusive."""
    ks = k_star(gamma)
    return range(math.floor(0.5 * ks), math.ceil(1.5 * ks) + 1)


@pytest.fixture(scope="module")
def threshold_curves():
    """Connectivity and no-isolated curves over every gamma's k grid.

    One table set per k, evaluated at every gamma that needs that k, so
    the two curves for a given (gamma, k) come from identical trials.
    """
    need: dict[int, set[float]] = {}
    for g in GAMMAS:
        for k in k_grid(g):
            need.setdefault(k, set()).add(g)
    started = time.perf_counter()
    conn: dict[tuple[float, int], float] = {}
    noiso: dict[tuple[float, int], float] = {}
    for k, gs in sorted(need.items()):
        gammas = tuple(sorted(gs))
        plan = ExperimentPlan(N, (k,), gammas, TRIALS, SEED)
        connected, no_isolated, _ = run_sweep(plan)[k]
        for g, conn_g, no_iso_g in zip(gammas, connected.tolist(), no_isolated.tolist()):
            conn[(g, k)] = conn_g / TRIALS
            noiso[(g, k)] = no_iso_g / TRIALS
    elapsed = time.perf_counter() - started
    return conn, noiso, elapsed


def crossing_location(gamma: float, conn: dict[tuple[float, int], float]) -> float:
    """First upward 0.5-crossing of the connectivity curve, interpolated."""
    grid = list(k_grid(gamma))
    for prev, cur in zip(grid, grid[1:]):
        p0, p1 = conn[(gamma, prev)], conn[(gamma, cur)]
        if p0 < 0.5 <= p1:
            return prev + (0.5 - p0) / (p1 - p0)
    raise AssertionError(f"no 0.5-crossing located for gamma={gamma}")


def test_full_deployment_two_keys_connects():
    started = time.perf_counter()
    plan = ExperimentPlan(n=N, k_values=(2,), gammas=(1.0,), trials=TRIALS, base_seed=SEED)
    connected = int(montecarlo.run_sweep(plan)[2][0][0])
    elapsed = time.perf_counter() - started
    print(f"n={N} k=2 full deployment: connected {connected}/{TRIALS} "
          f"(p_hat={connected / TRIALS:.4f}) in {elapsed:.1f}s")
    assert connected / TRIALS >= 0.99
    assert elapsed < 10.0


def test_full_deployment_one_key_often_disconnects():
    plan = ExperimentPlan(n=N, k_values=(1,), gammas=(1.0,), trials=TRIALS, base_seed=SEED)
    connected = int(montecarlo.run_sweep(plan)[1][0][0])
    print(f"n={N} k=1 full deployment: connected {connected}/{TRIALS} "
          f"(p_hat={connected / TRIALS:.4f})")
    assert connected / TRIALS <= 0.5


def test_partial_deployment_threshold_location(threshold_curves):
    conn, _, elapsed = threshold_curves
    problems = []
    for g in GAMMAS:
        ks = k_star(g)
        lo, hi = math.floor(0.5 * ks), math.ceil(1.5 * ks)
        p_lo, p_hi = conn[(g, lo)], conn[(g, hi)]
        crossing = crossing_location(g, conn)
        # Poisson approximation P(no isolated node) ~ exp(-E[isolated]) on
        # the same grid: the finite-n threshold, which sits a constant
        # offset in k from the asymptotic k_star at every n.
        first_moment = {
            (g, k): math.exp(-theory.expected_isolated(N, k, g)) for k in k_grid(g)
        }
        predicted = crossing_location(g, first_moment)
        print(f"gamma={g}: p(k={lo})={p_lo:.3f}, p(k={hi})={p_hi:.3f}, "
              f"0.5-crossing at k={crossing:.2f}, first-moment {predicted:.2f}, "
              f"asymptotic {ks:.2f} (gap {crossing - ks:+.2f})")
        if not p_lo < 0.15:
            problems.append(f"gamma={g}: p({lo})={p_lo:.3f} not below 0.15")
        if not p_hi > 0.9:
            problems.append(f"gamma={g}: p({hi})={p_hi:.3f} not above 0.9")
        if not abs(crossing - predicted) <= 2.0:
            problems.append(
                f"gamma={g}: crossing {crossing:.2f} not within 2 of {predicted:.2f}"
            )
    print(f"all curves computed in {elapsed:.1f}s")
    assert elapsed < 300.0
    assert not problems, "; ".join(problems)


def test_connected_and_no_isolated_curves_coincide(threshold_curves):
    conn, noiso, _ = threshold_curves
    worst = 0.0
    for g in (0.4, 0.8):
        for k in k_grid(g):
            worst = max(worst, abs(conn[(g, k)] - noiso[(g, k)]))
    print(f"largest |connected - no_isolated| gap over gamma in {{0.4, 0.8}}: {worst:.3f}")
    assert worst <= 0.05


def test_ring_census_concentration():
    configs = ((200, 4), (500, 21), (1000, 24), (2000, 26))
    # histograms of all 1000 * n ring sizes, indexed by size
    hists = {(n, k): montecarlo.run_keyring_census(n, k, 1000, SEED)[0] for n, k in configs}

    small = hists[(200, 4)]
    frac_over_3k = int(small[3 * 4 + 1:].sum()) / (1000 * 200)
    print(f"n=200 k=4: frac_over_3k={frac_over_3k:.4f}")
    assert 0.005 <= frac_over_3k <= 0.05

    big = hists[(1000, 24)]
    over = int(big[3 * 24 + 1:].sum())
    largest = int(np.flatnonzero(big)[-1])
    print(f"n=1000 k=24: {over} of 10^6 rings exceed 3k, largest={largest}")
    assert over <= 50
    assert largest <= 100

    for (n, k), hist in hists.items():
        mean_size = int((np.arange(len(hist)) * hist).sum()) / (1000 * n)
        rel = abs(mean_size - 2 * k) / (2 * k)
        print(f"n={n} k={k}: mean ring size {mean_size:.3f} "
              f"(target {2 * k}, rel err {rel:.4f})")
        assert rel <= 0.01


def test_exhaustive_enumeration_matches_exact_formula():
    # n=4, k=1: each node picks one of the other three, 3^4 = 81 tables.
    # Node 1 is isolated in the half deployment (m=2) iff neither of the
    # first two nodes picked the other.
    iso_count = 0
    for picks in product(range(3), repeat=4):
        partners = [c if c < i else c + 1 for i, c in enumerate(picks)]
        if partners[0] != 1 and partners[1] != 0:
            iso_count += 1
    enum_p = Fraction(iso_count, 81)

    formula = theory.isolation_prob_exact(4, 1, 0.5)

    trials = 100_000
    block = sampling.sample_pairing_block(sampling.fold(SEED, 1), 0, trials, 4, 1)
    iso = (block[:, 0, 0] != 1) & (block[:, 1, 0] != 0)
    p_hat = float(iso.mean())
    se = math.sqrt(float(enum_p) * (1 - float(enum_p)) / trials)

    print(f"enumeration {enum_p} = {float(enum_p):.6f}, formula {formula:.6f}, "
          f"monte carlo {p_hat:.6f} (3 SE = {3 * se:.6f})")
    assert enum_p == Fraction(4, 9)
    assert math.isclose(float(enum_p), formula, rel_tol=0, abs_tol=1e-15)
    assert abs(p_hat - float(enum_p)) <= 3 * se


def test_mean_isolated_count_matches_first_moment():
    gammas = (0.25, 0.5)
    worst = 0.0
    for n in (100, 400):
        for k in (1, 2, 3):
            _, isolated = per_trial_outcomes(ExperimentPlan(n, (k,), gammas, 10_000, SEED), k)
            for g, counts in zip(gammas, isolated):
                expected = theory.expected_isolated(n, k, g)
                mean = float(counts.mean())
                se = float(counts.std(ddof=1)) / math.sqrt(len(counts))
                z = abs(mean - expected) / se
                worst = max(worst, z)
                print(f"n={n} k={k} gamma={g}: mean isolated {mean:.4f}, "
                      f"expected {expected:.4f}, z={z:.2f}")
    assert worst <= 3.0


def test_deviation_root_solver_identities():
    lam_star = theory.maxring_critical_scale()
    residuals = {
        lam: abs(theory.upper_tail_coeff(lam, theory.upper_tail_root(lam)))
        for lam in (2.6, 3.0, 5.0, 10.0)
    }
    near = lam_star * (1 + 1e-9)
    x_near = theory.upper_tail_root(near) / near
    phi_identity = theory.poisson_rate(1.0) * lam_star
    print(f"worst root residual {max(residuals.values()):.2e}, "
          f"x at scale {near:.10f} is {x_near:.8f}, phi(1)*scale = {phi_identity:.14f}")
    assert all(r < 1e-7 for r in residuals.values())
    assert abs(x_near - 1.0) < 1e-6
    assert abs(phi_identity - 1.0) < 1e-12


def test_phased_schedule_joint_connectivity():
    k = math.ceil(1.2 * math.log(2000) / 0.25)
    assert k == 37
    started = time.perf_counter()
    plan = ExperimentPlan(2000, (k,), (0.25, 0.5, 1.0), TRIALS, SEED)
    _, _, joint = montecarlo.run_sweep(plan)[k]
    elapsed = time.perf_counter() - started
    print(f"n=2000 k={k} schedule (0.25, 0.5, 1.0): joint connectivity "
          f"{joint}/{TRIALS} (p_hat={joint / TRIALS:.4f}) in {elapsed:.1f}s")
    assert joint / TRIALS >= 0.95
    assert elapsed < 60.0


def test_maxring_deviation_frequency_within_bound():
    k = math.ceil(3 * LOG_N)
    assert k == 21
    _, max_hist = montecarlo.run_keyring_census(N, k, 1000, SEED)
    dev = 2.9 * LOG_N
    bad = int(max_hist[np.abs(np.arange(len(max_hist)) - 2 * k) >= dev].sum())
    freq = bad / 1000
    h = theory.decay_exponent(3.0, 2.9)
    bound = 2 * N ** -h
    print(f"max ring deviated >= {dev:.2f} from {2 * k} in {bad}/1000 trials "
          f"(freq {freq:.4f}); analytic bound {bound:.4f}, exponent h={h:.6f}")
    assert h > 0
    assert freq <= bound
