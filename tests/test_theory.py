"""Closed-form calculators against a 50-digit arbitrary-precision oracle.

Every public formula is re-evaluated here with mpmath from its own
definition (no shared code with the library) and must agree to 1e-10
relative error, and every one that depends on n to 1e-13 over one grid of
n, K, gamma and r.  A handful of externally worked values are frozen as
literals on top of that.  The union bound's early stop is checked bit for
bit against its full sum over every term, computed with the library's own
term arithmetic.
"""

import functools
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from pairdeploy import theory
from pairdeploy.sampling import sample_pairing_block
from pairdeploy.scheme import phase_size

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


def oracle_union_bound_tail(n, k, m, start):
    """A bound on the union bound's terms r >= start.  Over each block
    s = lo..e, doubling from start up to m//2, the bound of
    connectivity_union_bound's docstring holds with the group factor taken
    at e in place of m//2, and m - e in place of m - m//2:

        log T_s <= s * (1 + ln(m/lo) + log C(n-m+e-1, k)/C(n-1, k) - k*(m-e)/(n-1)),

    so where that factor b is negative the block totals at most
    exp(lo*b) / (1 - exp(b)).  infinity where some block's b is not."""
    total = mpf(0)
    lo = start
    while lo <= m // 2:
        e = min(2 * lo, m // 2 + 1) - 1
        b = 1 + mp.log(mpf(m) / lo) + mp.log(oracle_binom_ratio(n - m + e - 1, n - 1, k)) - mpf(k) * (m - e) / (n - 1)
        if b >= 0:
            return mp.inf
        total += mp.exp(lo * b) / (1 - mp.exp(b))
        lo = e + 1
    return total


def oracle_union_bound_sum(n, k, m, vacuous=mpf(1)):
    """(sum, tail): the union bound's terms summed to 50 digits until the
    tail bound of the rest is below 1e-17 of the sum, or below 2^-1100,
    and that bound; or until the sum reaches `vacuous`."""
    total = mpf(0)
    for r in range(1, m // 2 + 1):
        tail = oracle_union_bound_tail(n, k, m, r)
        if total >= vacuous or tail < mpf(10) ** -17 * total or tail < mpf(2) ** -1100:
            return total, tail
        total += mp.binomial(m, r) * oracle_event(n, k, m, r)
    return total, mpf(0)


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


def test_values_below_double_range_underflow_to_zero():
    """The exact values here are positive but below the smallest positive
    double (about 4.9e-324), and the functions return 0.0 as documented."""
    n = 10**6
    event = oracle_event(n, 60, phase_size(n, 0.9), 5)
    assert 0 < event < mpf("5e-324")
    assert mp.nstr(event, 2) == "5.1e-418"
    assert theory.isolation_event_prob(n, 60, 0.9, 5) == 0.0
    single = oracle_isolation(n, 300, phase_size(n, 0.9))
    assert 0 < single < mpf("5e-324")
    assert theory.isolation_prob_exact(n, 300, 0.9) == 0.0


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
        block = sample_pairing_block(424242, range(start, start + 100_000), n, k)
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


@pytest.mark.parametrize(
    "n,k,g",
    [(30, 2, 0.5), (100, 3, 0.4), (250, 5, 0.5), (1000, 21, 0.5),
     (100, 2, 1.0), (1000, 2, 1.0), (2000, 3, 1.0)],
)
def test_union_bound_matches_oracle(n, k, g):
    m = phase_size(n, g)
    want, _ = oracle_union_bound_sum(n, k, m, vacuous=mp.inf)
    assert rel_err(theory.connectivity_union_bound(n, k, g), want) < 1e-10


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
        k = math.ceil(1.5 * math.log(n) / 0.5)
        vals.append(theory.connectivity_union_bound(n, k, 0.5))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def full_sum_log_terms(n, k, m, rs=None):
    log_terms = []
    for r in rs or range(1, m // 2 + 1):
        grp, rest = theory._group_log_terms(n, k, m, r)
        log_terms.append(theory._log_choose(m, r) + r * grp + (m - r) * rest)
    return log_terms


@functools.cache
def full_sum_union_bound(n, k, gamma):
    """The union bound summed over every one of its m//2 terms, with the
    library's own floating-point steps: the oracle for its early stop."""
    log_terms = full_sum_log_terms(n, k, phase_size(n, gamma))
    top = max(log_terms)
    total = 0.0
    for t in log_terms:
        total += math.exp(t - top)
    try:
        return math.exp(top) * total
    except OverflowError:
        return math.inf


def _union_bound_defined(n, k, g):
    return 2 * (k + 1) < n


# few cases at n = 1e5 and 1e6: the full sum costs about 0.5 us per term and unit of K
UNION_GRID = [
    (n, k, g)
    for ns, ks, gs in [
        ((50, 300, 2000, 10000), (2, 5, 12, 25, 40), (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)),
        ((100000,), (5, 30), (0.1, 0.5)),
        ((1000000,), (30,), (0.1,)),
    ]
    for n in ns for k in ks for g in gs
    if _union_bound_defined(n, k, g)
]


@pytest.mark.parametrize("n,k,g", UNION_GRID)
def test_union_bound_early_stop_is_bit_exact(n, k, g):
    assert theory.connectivity_union_bound(n, k, g) == full_sum_union_bound(n, k, g)


def test_union_bound_early_stop_can_fail(monkeypatch):
    """The grid can see an unsound stop: with the cutoff at top itself in
    place of top - 37.5, terms that move the double are dropped."""
    monkeypatch.setattr(theory, "_NEGLIGIBLE", 0.0)
    small = [c for c in UNION_GRID if c[0] <= 2000]
    assert any(theory.connectivity_union_bound(*c) != full_sum_union_bound(*c) for c in small)


def evaluated_terms(monkeypatch, n, k, g):
    """The r of every union-bound term connectivity_union_bound evaluates."""
    calls = []
    group_log_terms = theory._group_log_terms

    def counted(*args):
        calls.append(args[-1])
        return group_log_terms(*args)

    monkeypatch.setattr(theory, "_group_log_terms", counted)
    theory.connectivity_union_bound(n, k, g)
    return calls


@pytest.mark.parametrize("n,k,g,most", [(100000, 30, 0.5, 500), (1000000, 30, 0.5, 2000)])
def test_union_bound_evaluates_few_terms(monkeypatch, n, k, g, most):
    calls = evaluated_terms(monkeypatch, n, k, g)
    assert calls == list(range(1, len(calls) + 1))
    assert len(calls) <= most


@pytest.mark.parametrize("n,k,most", [(1000000, 80, 12), (100000, 80, 12), (1000000, 20, 80)])
def test_union_bound_stops_once_it_underflows(monkeypatch, n, k, most):
    """At full deployment these bounds lie below 2^-1075, and 0.0 comes back
    after a few terms: waiting for the tail to fall below the largest term
    took 835 terms at (1e6, 80), 651 at (1e5, 80) and 344 at (1e6, 20)."""
    want, tail = oracle_union_bound_sum(n, k, n)
    assert want + tail < mpf(2) ** -1075
    assert theory.connectivity_union_bound(n, k, 1.0) == 0.0
    assert len(evaluated_terms(monkeypatch, n, k, 1.0)) <= most


@pytest.mark.parametrize("n,k,g", [(30, 2, 0.5), (100000, 2, 0.5)])
def test_union_bound_sums_every_term_where_no_stop_qualifies(monkeypatch, n, k, g):
    assert evaluated_terms(monkeypatch, n, k, g) == list(range(1, phase_size(n, g) // 2 + 1))


@pytest.mark.parametrize("n,k,g", [(10**6, 30, 0.5), (10**6, 200, 0.9), (10**5, 30, 0.2),
                                   (10**6, 2, 0.999), (1000, 40, 0.9), (50, 2, 0.5)])
def test_union_bound_margin_covers_term_rounding(n, k, g):
    """The docstring's rounding budget, 32 units of 2^-53 (lgamma(m+1) + k*m*n)
    out of a margin of 512, holds for the computed log terms."""
    m = phase_size(n, g)
    unit = 2.0**-53 * (math.lgamma(m + 1) + k * m * n)
    rs = sorted({1, 2, 3, 10, m // 4, m // 2})
    for r, t in zip(rs, full_sum_log_terms(n, k, m, rs)):
        exact = mp.log(mp.binomial(m, r) * oracle_event(n, k, m, r))
        assert abs(mpf(t) - exact) < 32 * unit


@pytest.mark.parametrize("n", [10**5, 10**6])
@pytest.mark.parametrize("k", [20, 30, 40, 60, 80])
@pytest.mark.parametrize("g", [0.3, 0.5, 0.7, 0.9, 1.0])
def test_union_bound_precise_at_large_n(n, k, g):
    """Within 1e-13 of mpmath from near the threshold (0.81 at n = 1e6,
    K = 20, gamma = 0.3) up; a 0.0 only where mpmath's value, tail
    included, rounds to 0 as a double."""
    want, tail = oracle_union_bound_sum(n, k, phase_size(n, g))
    got = theory.connectivity_union_bound(n, k, g)
    if got == 0:
        assert want + tail < mpf(2) ** -1075
    else:
        assert rel_err(got, want) < 1e-13


@pytest.mark.parametrize("n,k,g,printed", [
    (1000000, 40, 0.5, "9.36254919e-16"),
    (100000, 40, 0.7, "5.74893263e-29"),
    (1000000, 40, 0.7, "5.87072377e-28"),
    (1000000, 60, 0.7, "1.69706288e-44"),
    (1000000, 80, 0.9, "4.69323455e-106"),
])
def test_union_bound_prints_mpmath_digits(n, k, g, printed):
    """Nine significant digits where the lgamma form of log C(m, r) printed
    a wrong last digit (e.g. 9.36254918e-16 for the first)."""
    want, _ = oracle_union_bound_sum(n, k, phase_size(n, g))
    assert mp.nstr(want, 9) == printed
    assert f"{theory.connectivity_union_bound(n, k, g):.9g}" == printed


@pytest.mark.parametrize("n,k,g", [(100000, 2, 0.5), (20000, 2, 0.1), (20000, 5, 0.1), (100000, 10, 0.1)])
def test_union_bound_past_double_range_is_inf(n, k, g):
    assert theory.connectivity_union_bound(n, k, g) == math.inf


def test_union_bound_domain():
    with pytest.raises(ValueError):
        theory.connectivity_union_bound(10, 4, 0.5)  # 2(k+1) not < n
    with pytest.raises(ValueError):
        theory.connectivity_union_bound(20, 2, 0.1)  # gamma*n not > 2


# -- full-deployment connectivity bound ----------------------------------------

def test_full_connectivity_bound():
    assert math.isclose(theory.connectivity_lower_bound_full(100), 0.99865, rel_tol=1e-12)
    assert theory.connectivity_lower_bound_full(2) < 0  # vacuous at tiny n
    assert theory.connectivity_lower_bound_full(10**9) > 1 - 1e-12
    with pytest.raises(ValueError):
        theory.connectivity_lower_bound_full(1)


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_union_bound_certifies_the_full_connectivity_bound(k):
    """The range the docstring states: the union bound at full deployment
    is within 27/(2 n^2) at every n from the first with 2(k+1) < n (7 at
    k = 2) to 1000, and at k = 2 for n = 1e4, 1e5 and 1e6."""
    ns = list(range(2 * (k + 1) + 1, 1001)) + ([10**4, 10**5, 10**6] if k == 2 else [])
    over = [n for n in ns if theory.connectivity_union_bound(n, k, 1.0) > 27 / (2 * n * n)]
    assert over == []


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


def test_decay_exponent():
    a = theory.upper_tail_coeff(3.0, 2.9)
    b = theory.lower_tail_coeff(3.0, 2.9)
    h = theory.decay_exponent(3.0, 2.9)
    assert h == -max(a, b)
    assert abs(a + 0.090406367237028) < 1e-12
    assert abs(b + 2.55988026183378) < 1e-11
    assert abs(h - 0.090406367237028) < 1e-12


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


def test_root_kills_coefficient_up_to_its_bound():
    """|a(lam, c)| < 1e-7 at the returned root, evaluated in 50 digits, over
    scales from just past the critical point to the bound 1e12, four per
    decade.  Past about 1e19 the rounding of poisson_rate breaks it (-1.0e-6
    at 1e20), and it grows as sqrt(lam): the root stops at 1e12."""
    scales = [theory.maxring_critical_scale() * (1 + 1e-9), 2.6, *(10 ** (e / 4) for e in range(2, 49))]
    assert scales[-1] == 1e12
    worst = max(abs(oracle_a(lam, theory.upper_tail_root(lam))) for lam in scales)
    assert worst < 1e-7


def test_root_domain():
    with pytest.raises(ValueError):
        theory.upper_tail_root(theory.maxring_critical_scale())
    with pytest.raises(ValueError):
        theory.upper_tail_root(1.0)
    for lam in (math.nextafter(1e12, math.inf), 1e16, 1e308):
        with pytest.raises(ValueError, match="1e12]"):
            theory.upper_tail_root(lam)


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
    with pytest.raises(ValueError):
        theory.maxring_tail_bound(10, 100, 5.0)  # k > n-1: no such scheme


def test_scaled_maxring_bound_values():
    # the scaled form 2 * n^(-h) of the largest-ring bound at lam=3, c=2.9
    h = theory.decay_exponent(3.0, 2.9)
    assert abs(2 * 1000 ** -h - 1.07105283218991) < 1e-10
    assert abs(2 * 10000 ** -h - 0.869770205799759) < 1e-10


def test_exponent_positive_between_root_and_scale():
    for lam in (2.7, 3.0, 5.0, 10.0):
        root = theory.upper_tail_root(lam)
        for c in np.linspace(root, lam, 12)[1:-1]:
            assert theory.decay_exponent(lam, float(c)) > 0


# -- one accuracy bar for every n-dependent closed form --------------------------
#
# The grid: n = 1e2..1e6, K from 1 up, gamma from 0.1 to 1, r in {1, 2, 5}.  A
# value is held to 1e-13 relative error against 50-digit mpmath, with two
# exemptions: a 0.0 where mpmath lies below 2^-1075, half the smallest
# subnormal, and a subnormal, held to 1e-13*ref + 2^-1074.  The union bound is
# held to the bar where it bounds a probability, mpmath's value below 1; a
# vacuous bound is not, see test_union_bound_within_bar_where_vacuous.

BAR_NS = [10**2, 10**3, 10**4, 10**5, 10**6]
BAR_KS = [1, 2, 3, 5, 10, 20, 40, 80]
BAR_GAMMAS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
SMALLEST_SUBNORMAL = mpf(2) ** -1074


def assert_within_bar(got, want, what):
    if got == 0:
        assert want < SMALLEST_SUBNORMAL / 2, what
    elif got < 2.0**-1022:
        assert abs(mpf(got) - want) <= mpf("1e-13") * want + SMALLEST_SUBNORMAL, what
    else:
        assert rel_err(got, want) < 1e-13, what


def bar_cells(n, group=False):
    """(k, gamma, m) of the grid at n that the functions accept; with group,
    those the group formulas accept as well: 2(k+1) < n and gamma*n > 2."""
    for k in BAR_KS:
        for g in BAR_GAMMAS:
            m = phase_size(n, g)
            if k < n and m >= 2 and (not group or 2 * (k + 1) < n and g * n > 2):
                yield k, g, m


@pytest.mark.parametrize("n", BAR_NS)
def test_isolation_probabilities_within_bar(n):
    for k, g, m in bar_cells(n):
        want = oracle_isolation(n, k, m)
        assert_within_bar(theory.isolation_prob_exact(n, k, g), want, ("isolation", n, k, g))
        assert_within_bar(theory.expected_isolated(n, k, g), m * want, ("expected", n, k, g))


@pytest.mark.parametrize("n", BAR_NS)
def test_isolation_events_within_bar(n):
    for k, g, m in bar_cells(n, group=True):
        for r in (1, 2, 5):
            if r <= m:
                want = oracle_event(n, k, m, r)
                assert_within_bar(theory.isolation_event_prob(n, k, g, r), want, (n, k, g, r))


@pytest.mark.parametrize("n", BAR_NS)
def test_union_bound_within_bar(n):
    for k, g, m in bar_cells(n, group=True):
        want, tail = oracle_union_bound_sum(n, k, m)
        if want < 1:
            got = theory.connectivity_union_bound(n, k, g)
            assert_within_bar(got, want + tail if got == 0 else want, (n, k, g))


@pytest.mark.parametrize("n", BAR_NS)
def test_ring_and_full_deployment_bounds_within_bar(n):
    assert_within_bar(theory.connectivity_lower_bound_full(n), 1 - mpf(27) / (2 * mpf(n) ** 2), n)
    for k in BAR_KS:
        if k < n:
            for t in (0.25 * k, 0.5 * k, 0.9 * k):
                assert_within_bar(theory.maxring_tail_bound(n, k, t), oracle_maxring_bound(n, k, t), (n, k, t))


@pytest.mark.xfail(strict=True, reason="a vacuous bound's log terms cancel parts of size about m")
def test_union_bound_within_bar_where_vacuous():
    """Above 1 the bound's largest terms sit near r = m/2, where log C(m, r)
    and the log factors are each of size about m and cancel to a few
    hundred: each carries rounding of about an ulp of m, so the sum is off
    by about 1e-12 here, and by 1e-10 at (1e5, 1, 1.0)."""
    n, k, g = 10000, 3, 0.3
    want, _ = oracle_union_bound_sum(n, k, phase_size(n, g), vacuous=mp.inf)
    assert want > 1
    assert_within_bar(theory.connectivity_union_bound(n, k, g), want, (n, k, g))
