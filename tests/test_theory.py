"""Closed-form calculators against a 50-digit arbitrary-precision oracle.

Every public formula is re-evaluated here with mpmath from its own
definition (no shared code with the library) and must agree to 1e-10
relative error.  A handful of externally worked values are frozen as
literals on top of that.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from pairdeploy import phase_size, theory
from pairdeploy.sampling import sample_pairing_block

mp.dps = 50

# frozen high-precision evaluations (50-digit arithmetic, rounded here)
R_HALF = 0.4190597841964052
R_NINE_TENTHS = 0.2810229779589102
LAMBDA_STAR = 2.5886994495620898
C_OF_FIVE = 3.4804711015651882
UNION_BOUND_FIXTURE = 4.8904625780057326e-9  # n=1000, k=21, gamma=0.5


def rel_err(got: float, want: mpf) -> float:
    if want == 0:
        return abs(got)
    return float(abs(got - want) / abs(want))


# -- oracle definitions -------------------------------------------------------

def oracle_threshold(g):
    g = mpf(str(g))
    return 1 / (1 - mp.log(1 - g) / g)


def oracle_phi(x):
    x = mpf(str(x))
    return (1 + x) * mp.log(1 + x) - x


def oracle_a(lam, c):
    lam, c = mpf(str(lam)), mpf(str(c))
    return 1 + c - (lam + c) * mp.log(1 + c / lam)


def oracle_b(lam, c):
    lam, c = mpf(str(lam)), mpf(str(c))
    if c == lam:
        return -lam
    return -c - (lam - c) * mp.log(1 - c / lam)


def oracle_binom_ratio(x, y, k):
    if x < k:
        return mpf(0)
    return mp.binomial(x, k) / mp.binomial(y, k)


def oracle_isolation(n, k, m):
    own = oracle_binom_ratio(n - m, n - 1, k)
    others = oracle_binom_ratio(n - 2, n - 1, k)
    return own * others ** (m - 1)


def oracle_event(n, k, m, r):
    grp = oracle_binom_ratio(n - m + r - 1, n - 1, k)
    rest = oracle_binom_ratio(n - r - 1, n - 1, k)
    return grp**r * rest ** (m - r)


def oracle_union_bound(n, k, m):
    return mp.fsum(
        mp.binomial(m, r) * oracle_event(n, k, m, r) for r in range(1, m // 2 + 1)
    )


def oracle_maxring_bound(n, k, t):
    n, k, t = mpf(n), mpf(k), mpf(str(t))
    upper = mp.log(n) + t - (k + t) * mp.log(1 + t / k)
    lower = -t - (k - t) * mp.log(1 - t / k)
    return mp.exp(upper) + mp.exp(lower)


def oracle_root(lam):
    lam = mpf(str(lam))
    lo, hi = mpf(0), mpf(1)
    for _ in range(200):
        mid = (lo + hi) / 2
        if oracle_phi(mid) < 1 / lam:
            lo = mid
        else:
            hi = mid
    return lam * (lo + hi) / 2


# -- isolation threshold ------------------------------------------------------

@pytest.mark.parametrize("g", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_threshold_matches_oracle(g):
    assert rel_err(theory.isolation_threshold(g), oracle_threshold(g)) < 1e-10


def test_threshold_frozen_values():
    assert abs(theory.isolation_threshold(0.5) - R_HALF) < 1e-12
    assert abs(theory.isolation_threshold(0.9) - R_NINE_TENTHS) < 1e-12
    assert abs(theory.isolation_threshold(0.5) - 0.419060) < 1e-6
    assert abs(theory.isolation_threshold(0.9) - 0.281023) < 1e-6


def test_threshold_strictly_decreasing_with_known_limits():
    grid = [theory.isolation_threshold(g / 100) for g in range(1, 100)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    assert all(0 < v < 0.5 for v in grid)
    assert abs(theory.isolation_threshold(1e-9) - 0.5) < 1e-6  # -> 1/2 at 0+
    # The gamma -> 1 limit is 0, approached like 1/log(1/(1-gamma)):
    # at gamma = 1 - 1e-12 the value is 1/(1 + 12 ln 10) ~ 0.0349.
    assert 0.0 < theory.isolation_threshold(1 - 1e-12) < 0.04


def test_threshold_domain():
    for g in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            theory.isolation_threshold(g)


# -- critical scale and the poisson rate --------------------------------------

def test_critical_scale_value():
    lam = theory.maxring_critical_scale()
    assert abs(lam - LAMBDA_STAR) < 1e-12
    assert round(lam, 1) == 2.6
    assert abs(theory.poisson_rate(1.0) * lam - 1.0) < 1e-12


def test_poisson_rate_matches_oracle():
    for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
        assert rel_err(theory.poisson_rate(x), oracle_phi(x)) < 1e-10


def test_poisson_rate_shape():
    assert theory.poisson_rate(0.0) == 0.0
    grid = [theory.poisson_rate(0.1 * i) for i in range(1, 101)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        theory.poisson_rate(-0.01)


# -- scaling ------------------------------------------------------------------

def test_scaling_k_values():
    assert theory.scaling_k(1000, 1.2, 0.4) == 21
    assert theory.scaling_k(1000, 1.5, 0.5) == 21
    assert theory.scaling_k(2000, 1.2, 0.25) == 37


def test_scaling_k_positive_and_consistent():
    for n in (2, 3, 10, 10**6):
        for c in (0.1, 1.0, 3.0):
            for g in (0.2, 1.0):
                got = theory.scaling_k(n, c, g)
                assert got >= 1
                assert got == math.ceil(c * math.log(n) / g)


def test_scaling_k_domain():
    with pytest.raises(ValueError):
        theory.scaling_k(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        theory.scaling_k(100, 0.0, 0.5)
    with pytest.raises(ValueError):
        theory.scaling_k(100, 1.0, 0.0)


# -- exact isolation probabilities --------------------------------------------

def test_isolation_prob_hand_values():
    assert math.isclose(theory.isolation_prob_exact(4, 1, 0.5), 4 / 9, rel_tol=1e-12)
    assert math.isclose(theory.isolation_prob_exact(6, 1, 0.5), 0.384, rel_tol=1e-12)
    assert theory.isolation_prob_exact(6, 4, 0.5) == 0.0  # cannot avoid deployed set


@pytest.mark.parametrize("n", [10, 47, 100, 400])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("g", [0.25, 0.5, 0.8])
def test_isolation_prob_matches_oracle(n, k, g):
    m = phase_size(n, g)
    assert rel_err(theory.isolation_prob_exact(n, k, g), oracle_isolation(n, k, m)) < 1e-10


@pytest.mark.parametrize("k,g", [(40, 0.3), (60, 0.9), (200, 0.7)])
def test_isolation_prob_precise_at_million_nodes(k, g):
    """At n = 1e6 the log-ratio sums must not lose digits to cancellation."""
    n = 10**6
    m = phase_size(n, g)
    want = oracle_isolation(n, k, m)
    assert rel_err(theory.isolation_prob_exact(n, k, g), want) < 1e-12
    assert rel_err(theory.expected_isolated(n, k, g), m * want) < 1e-12


def test_cli_rounding_at_million_nodes():
    """Nine significant digits round the same way as the 50-digit value."""
    n, k, g = 10**6, 60, 0.9
    m = phase_size(n, g)
    want = oracle_isolation(n, k, m)
    assert f"{theory.isolation_prob_exact(n, k, g):.9g}" == "3.47138861e-84"
    assert f"{theory.expected_isolated(n, k, g):.9g}" == "3.12424975e-78"
    assert mp.nstr(want, 9) == "3.47138861e-84"
    assert mp.nstr(m * want, 9) == "3.12424975e-78"


def test_expected_isolated_values():
    assert math.isclose(theory.expected_isolated(4, 1, 0.5), 8 / 9, rel_tol=1e-12)
    assert math.isclose(theory.expected_isolated(6, 1, 0.5), 1.152, rel_tol=1e-12)
    assert theory.expected_isolated(8, 5, 0.5) == 0.0


def test_isolation_prob_domain():
    with pytest.raises(ValueError):
        theory.isolation_prob_exact(10, 1, 0.1)  # floor(gamma*n) = 1
    with pytest.raises(ValueError):
        theory.isolation_prob_exact(10, 0, 0.5)
    with pytest.raises(ValueError):
        theory.isolation_prob_exact(10, 10, 0.5)


# -- group isolation events ----------------------------------------------------

def test_event_prob_reduces_to_single_node_case():
    for n, k, g in [(20, 2, 0.5), (100, 3, 0.4), (50, 1, 0.3)]:
        assert theory.isolation_event_prob(n, k, g, 1) == theory.isolation_prob_exact(n, k, g)


def test_event_prob_whole_phase_group_is_certain():
    # the group is the entire deployed set: nothing to be separated from
    assert theory.isolation_event_prob(20, 2, 0.15, 3) == 1.0


def test_event_prob_zero_binomial():
    # k too large for the group to select only outside the deployed set
    assert theory.isolation_event_prob(20, 8, 0.8, 1) == 0.0


@pytest.mark.parametrize("n,k,g,r", [
    (20, 2, 0.5, 3),
    (50, 3, 0.4, 2),
    (100, 4, 0.5, 5),
    (200, 2, 0.3, 7),
])
def test_event_prob_matches_oracle(n, k, g, r):
    m = phase_size(n, g)
    got = theory.isolation_event_prob(n, k, g, r)
    assert 0 < got < 1
    assert rel_err(got, oracle_event(n, k, m, r)) < 1e-10


@pytest.mark.parametrize("k,g,r", [(60, 0.9, 2), (30, 0.5, 2), (20, 0.5, 3)])
def test_event_prob_precise_at_million_nodes(k, g, r):
    n = 10**6
    m = phase_size(n, g)
    assert rel_err(theory.isolation_event_prob(n, k, g, r), oracle_event(n, k, m, r)) < 1e-12


def test_event_prob_domain():
    with pytest.raises(ValueError):
        theory.isolation_event_prob(10, 4, 0.5, 1)  # 2(k+1) = 10, not < n
    with pytest.raises(ValueError):
        theory.isolation_event_prob(20, 2, 0.1, 1)  # gamma*n = 2, not > 2
    with pytest.raises(ValueError):
        theory.isolation_event_prob(20, 2, 0.5, 0)
    with pytest.raises(ValueError):
        theory.isolation_event_prob(20, 2, 0.5, 11)  # r > floor(gamma*n)


def test_event_prob_against_simulation():
    """Frequency of 'first 3 deployed nodes have no edge to the other 7
    deployed' over 1e6 tables at n=20, k=2 vs the exact formula, 3 SE."""
    n, k, trials = 20, 2, 1_000_000
    p = theory.isolation_event_prob(n, k, 0.5, 3)
    hits = 0
    for start in range(0, trials, 100_000):
        block = sample_pairing_block(424242, start, 100_000, n, k)
        group, others = block[:, :3], block[:, 3:10]
        outgoing = ((group >= 3) & (group <= 9)).any(axis=(1, 2))
        incoming = (others <= 2).any(axis=(1, 2))
        hits += int((~(outgoing | incoming)).sum())
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * se


# -- union bound ---------------------------------------------------------------

def test_union_bound_fixture():
    got = theory.connectivity_union_bound(1000, 21, 0.5)
    assert rel_err(got, mpf(UNION_BOUND_FIXTURE)) < 1e-9
    assert got < 0.05


@pytest.mark.parametrize("n,k,g", [(30, 2, 0.5), (100, 3, 0.4), (250, 5, 0.5), (1000, 21, 0.5)])
def test_union_bound_matches_oracle(n, k, g):
    m = phase_size(n, g)
    assert rel_err(theory.connectivity_union_bound(n, k, g), oracle_union_bound(n, k, m)) < 1e-10


def test_union_bound_dominates_first_term():
    n, k, g = 100, 3, 0.4
    m = 40
    first = m * theory.isolation_event_prob(n, k, g, 1)
    assert theory.connectivity_union_bound(n, k, g) >= first * (1 - 1e-12)


def test_union_bound_nonincreasing_in_k():
    vals = [theory.connectivity_union_bound(1000, k, 0.5) for k in range(1, 41)]
    assert all(a >= b * (1 - 1e-12) for a, b in zip(vals, vals[1:]))


def test_union_bound_vanishes_along_supercritical_scaling():
    # k grows like 1.5 ln(n) / gamma: the bound must fall toward zero
    vals = []
    for n in (250, 500, 1000, 2000):
        k = theory.scaling_k(n, 1.5, 0.5)
        vals.append(theory.connectivity_union_bound(n, k, 0.5))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_union_bound_domain():
    with pytest.raises(ValueError):
        theory.connectivity_union_bound(10, 4, 0.5)  # 2(k+1) not < n
    with pytest.raises(ValueError):
        theory.connectivity_union_bound(20, 2, 0.1)  # gamma*n not > 2
    with pytest.raises(ValueError):
        theory.connectivity_union_bound(100, 30, 0.8)  # k+1 > n - m


# -- full-deployment connectivity bound ----------------------------------------

def test_full_connectivity_bound():
    assert math.isclose(theory.connectivity_lower_bound_full(100), 0.99865, rel_tol=1e-12)
    assert theory.connectivity_lower_bound_full(2) < 0  # vacuous at tiny n
    assert theory.connectivity_lower_bound_full(10**9) > 1 - 1e-12
    with pytest.raises(ValueError):
        theory.connectivity_lower_bound_full(1)


# -- tail coefficient algebra ---------------------------------------------------

@pytest.mark.parametrize("lam", [2.7, 3.0, 5.0, 10.0])
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 0.999])
def test_tail_coeffs_match_oracle(lam, frac):
    c = lam * frac
    assert rel_err(theory.upper_tail_coeff(lam, c), oracle_a(lam, c)) < 1e-10
    assert rel_err(theory.lower_tail_coeff(lam, c), oracle_b(lam, c)) < 1e-10


def test_tail_coeff_limits():
    assert abs(theory.upper_tail_coeff(3.0, 1e-10) - 1.0) < 1e-8  # a -> 1 as c -> 0
    lam = theory.maxring_critical_scale()
    assert abs(theory.upper_tail_coeff(lam, lam * (1 - 1e-10))) < 1e-8  # a -> 0 at c -> lam*
    assert theory.lower_tail_coeff(4.0, 4.0) == -4.0  # 0*log(0) = 0 convention


def test_lower_tail_coeff_negative_inside_interval():
    for lam in (1.0, 2.6, 7.0):
        for frac in (0.01, 0.3, 0.6, 0.99):
            assert theory.lower_tail_coeff(lam, lam * frac) < 0


def test_tail_exponents_bundle():
    te = theory.tail_exponents(3.0, 2.9)
    assert te.h == -max(te.a, te.b)
    assert abs(te.a + 0.090406367237028) < 1e-12
    assert abs(te.b + 2.55988026183378) < 1e-11
    assert abs(te.h - 0.090406367237028) < 1e-12


def test_tail_coeff_domain():
    with pytest.raises(ValueError):
        theory.upper_tail_coeff(0.0, 1.0)
    with pytest.raises(ValueError):
        theory.upper_tail_coeff(3.0, 0.0)
    with pytest.raises(ValueError):
        theory.lower_tail_coeff(3.0, 3.1)
    with pytest.raises(ValueError):
        theory.lower_tail_coeff(3.0, 0.0)


# -- deviation root solver -------------------------------------------------------

def test_root_frozen_value():
    got = theory.upper_tail_root(5.0)
    assert abs(got - C_OF_FIVE) < 1e-9
    assert abs(got - 3.4805) < 1e-3


@pytest.mark.parametrize("lam", [2.6, 3.0, 5.0, 10.0, 100.0])
def test_root_matches_oracle_and_kills_coefficient(lam):
    c = theory.upper_tail_root(lam)
    assert rel_err(c, oracle_root(lam)) < 1e-10
    assert abs(theory.upper_tail_coeff(lam, c)) < 1e-7
    assert 0 < c < lam
    # residual of the underlying root equation
    assert abs(theory.poisson_rate(c / lam) - 1.0 / lam) < 1e-12


def test_root_approaches_scale_at_critical_point():
    lam = theory.maxring_critical_scale() * (1 + 1e-9)
    assert abs(theory.upper_tail_root(lam) / lam - 1.0) < 1e-6


def test_root_domain():
    with pytest.raises(ValueError):
        theory.upper_tail_root(theory.maxring_critical_scale())
    with pytest.raises(ValueError):
        theory.upper_tail_root(1.0)


# -- largest-ring tail bounds ----------------------------------------------------

@pytest.mark.parametrize("n,k,t", [(1000, 21, 5.0), (1000, 21, 20.9), (100, 10, 3.5), (10000, 28, 26.7)])
def test_maxring_bound_matches_oracle(n, k, t):
    got = theory.maxring_tail_bound(n, k, t)
    assert got > 0 and math.isfinite(got)
    assert rel_err(got, oracle_maxring_bound(n, k, t)) < 1e-10


def test_maxring_bound_vacuous_at_tiny_deviation():
    # upper term tends to n, lower term to 1
    assert abs(theory.maxring_tail_bound(1000, 21, 1e-9) - 1001.0) < 1e-3


def test_maxring_bound_domain():
    with pytest.raises(ValueError):
        theory.maxring_tail_bound(1000, 21, 0.0)
    with pytest.raises(ValueError):
        theory.maxring_tail_bound(1000, 21, 21.0)
    with pytest.raises(ValueError):
        theory.maxring_tail_bound(1, 21, 1.0)


def test_scaled_maxring_bound_values():
    got = theory.maxring_tail_bound_scaled(1000, 3.0, 2.9)
    assert abs(got - 1.07105283218991) < 1e-10
    got4 = theory.maxring_tail_bound_scaled(10000, 3.0, 2.9)
    assert abs(got4 - 0.869770205799759) < 1e-10


def test_scaled_maxring_bound_needs_valid_window():
    root = theory.upper_tail_root(3.0)
    with pytest.raises(ValueError):
        theory.maxring_tail_bound_scaled(1000, 3.0, root * 0.99)
    with pytest.raises(ValueError):
        theory.maxring_tail_bound_scaled(1000, 3.0, 3.0)


def test_exponent_positive_between_root_and_scale():
    for lam in (2.7, 3.0, 5.0, 10.0):
        root = theory.upper_tail_root(lam)
        for c in np.linspace(root, lam, 12)[1:-1]:
            assert theory.tail_exponents(lam, float(c)).h > 0
