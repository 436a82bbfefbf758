"""Closed-form calculators for the pairwise scheme under gradual deployment.

Everything here is finite-n evaluation of exact formulas: the isolation
threshold governing how many selections per node a partial deployment
needs, exact first-moment isolation probabilities, a union bound on the
probability the deployed key graph is disconnected, and the exponent
algebra bounding the largest key ring.  All logarithms are natural.

Binomial-coefficient ratios C(x,K)/C(y,K) are evaluated as exactly rounded
log-space sums of log1p((x-y)/(y-l)), which stay finite and accurate to
below 1e-13 relative error for n up to 1e6; C(a,b) = 0 when a < b, so
degenerate configurations yield probability 0 instead of errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scheme import phase_size

__all__ = [
    "TailExponents",
    "isolation_threshold",
    "maxring_critical_scale",
    "scaling_k",
    "isolation_prob_exact",
    "expected_isolated",
    "isolation_event_prob",
    "connectivity_union_bound",
    "connectivity_lower_bound_full",
    "upper_tail_coeff",
    "lower_tail_coeff",
    "tail_exponents",
    "poisson_rate",
    "upper_tail_root",
    "maxring_tail_bound",
    "maxring_tail_bound_scaled",
]


@dataclass(frozen=True)
class TailExponents:
    """Upper/lower tail coefficients a, b and the decay exponent h = -max(a, b)."""

    a: float
    b: float
    h: float


def isolation_threshold(gamma: float) -> float:
    """Critical scale r(gamma) = (1 - ln(1-gamma)/gamma)^-1 for isolated nodes.

    With k ~ c*ln(n)/gamma selections, the deployed graph has isolated
    nodes with probability -> 1 when c < r(gamma) and -> 0 when c > r(gamma).
    Strictly decreasing on (0,1), from 1/2 at 0+ down to 0 at 1-.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be strictly inside (0, 1), got {gamma}")
    return 1.0 / (1.0 - math.log1p(-gamma) / gamma)


def maxring_critical_scale() -> float:
    """Scale 1/(2 ln 2 - 1): above it the largest key ring concentrates at 2k."""
    return 1.0 / (2.0 * math.log(2.0) - 1.0)


def scaling_k(n: int, c: float, gamma: float) -> int:
    """Selections per node under the scaling k = ceil(c * ln(n) / gamma)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if c <= 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    return math.ceil(c * math.log(n) / gamma)


def _log_binom_ratio(x: int, y: int, k: int) -> float:
    """log of C(x,k)/C(y,k) for x <= y; -inf when C(x,k) = 0."""
    if x < k:
        return -math.inf
    # log((x-i)/(y-i)) = log1p((x-y)/(y-i)): no cancellation between two logs
    return math.fsum(math.log1p((x - y) / (y - i)) for i in range(k))


def _check_nk(n: int, k: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} with n={n}")


def isolation_prob_exact(n: int, k: int, gamma: float) -> float:
    """Exact probability a fixed deployed node is isolated among the first
    m = floor(gamma*n) nodes:

        C(n-m, k)/C(n-1, k) * (C(n-2, k)/C(n-1, k))^(m-1)

    The first factor is its own selections all avoiding deployed nodes; the
    second, none of the other m-1 deployed nodes selecting it.  Zero when
    k > n - m (the node cannot avoid the deployed set).
    """
    _check_nk(n, k)
    m = phase_size(n, gamma)
    if m < 2:
        raise ValueError(f"need floor(gamma*n) >= 2, got {m}")
    own = _log_binom_ratio(n - m, n - 1, k)
    if own == -math.inf:
        return 0.0
    others = _log_binom_ratio(n - 2, n - 1, k)
    return math.exp(own + (m - 1) * others)


def expected_isolated(n: int, k: int, gamma: float) -> float:
    """Expected number of isolated deployed nodes: floor(gamma*n) times
    isolation_prob_exact."""
    return phase_size(n, gamma) * isolation_prob_exact(n, k, gamma)


def _exact_gamma_n(n: int, gamma: float) -> Fraction:
    return Fraction(str(gamma)) * n


def isolation_event_prob(n: int, k: int, gamma: float, r: int) -> float:
    """Probability that a fixed set of r deployed nodes has no key-graph
    edge leaving it into the rest of the deployed set:

        (C(n-m+r-1, k)/C(n-1, k))^r * (C(n-r-1, k)/C(n-1, k))^(m-r)

    with m = floor(gamma*n).  Requires 2(k+1) < n and gamma*n > 2; zero
    binomials propagate to 0.  Equals isolation_prob_exact at r = 1.
    """
    _check_nk(n, k)
    if not 2 * (k + 1) < n:
        raise ValueError(f"need 2(k+1) < n, got k={k}, n={n}")
    if not _exact_gamma_n(n, gamma) > 2:
        raise ValueError(f"need gamma*n > 2, got gamma={gamma}, n={n}")
    m = phase_size(n, gamma)
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= floor(gamma*n) = {m}, got r={r}")
    grp = _log_binom_ratio(n - m + r - 1, n - 1, k)
    rest = _log_binom_ratio(n - r - 1, n - 1, k)
    log_p = r * grp + (0 if m == r else (m - r) * rest)
    return 0.0 if log_p == -math.inf else math.exp(log_p)


def connectivity_union_bound(n: int, k: int, gamma: float) -> float:
    """Union bound on P[deployed key graph not connected]:

        sum_{r=1..floor(gamma*n/2)} C(m, r) * isolation_event_prob(n,k,gamma,r)

    summed in log space.  A valid upper bound whenever 2(k+1) < n,
    k+1 <= n - m and gamma*n > 2; may exceed 1 (vacuous but returned).
    """
    _check_nk(n, k)
    if not 2 * (k + 1) < n:
        raise ValueError(f"need 2(k+1) < n, got k={k}, n={n}")
    if not _exact_gamma_n(n, gamma) > 2:
        raise ValueError(f"need gamma*n > 2, got gamma={gamma}, n={n}")
    m = phase_size(n, gamma)
    if not k + 1 <= n - m:
        raise ValueError(f"need k+1 <= n - floor(gamma*n), got k={k}, n={n}, m={m}")
    log_terms = []
    for r in range(1, m // 2 + 1):
        grp = _log_binom_ratio(n - m + r - 1, n - 1, k)
        if grp == -math.inf:
            continue
        rest = _log_binom_ratio(n - r - 1, n - 1, k)
        choose = math.lgamma(m + 1) - math.lgamma(r + 1) - math.lgamma(m - r + 1)
        log_terms.append(choose + r * grp + (m - r) * rest)
    if not log_terms:
        return 0.0
    top = max(log_terms)
    return math.exp(top) * sum(math.exp(t - top) for t in log_terms)


def connectivity_lower_bound_full(n: int) -> float:
    """Lower bound 1 - 27/(2 n^2) on P[full graph connected] for k >= 2.

    Asymptotic: it holds for n sufficiently large (here exercised for
    n >= 100, where it is comfortably nontrivial); at tiny n it can go
    negative, which is vacuous but still returned.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 1.0 - 27.0 / (2.0 * n * n)


def upper_tail_coeff(lam: float, c: float) -> float:
    """a(lam; c) = 1 + c - (lam + c) ln(1 + c/lam), the upper-tail exponent
    coefficient of the largest-ring bound at scale lam and deviation c."""
    if lam <= 0:
        raise ValueError(f"scale must be positive, got {lam}")
    if c <= 0:
        raise ValueError(f"deviation must be positive, got {c}")
    return 1.0 + c - (lam + c) * math.log1p(c / lam)


def lower_tail_coeff(lam: float, c: float) -> float:
    """b(lam; c) = -c - (lam - c) ln(1 - c/lam) for 0 < c <= lam.

    At c = lam the 0*log(0) = 0 convention gives exactly -lam.  Negative on
    the whole open interval 0 < c < lam.
    """
    if lam <= 0:
        raise ValueError(f"scale must be positive, got {lam}")
    if not 0 < c <= lam:
        raise ValueError(f"need 0 < c <= lam, got c={c}, lam={lam}")
    if c == lam:
        return -lam
    return -c - (lam - c) * math.log1p(-c / lam)


def tail_exponents(lam: float, c: float) -> TailExponents:
    """Both tail coefficients and the decay exponent h = -max(a, b)."""
    a = upper_tail_coeff(lam, c)
    b = lower_tail_coeff(lam, c)
    return TailExponents(a=a, b=b, h=-max(a, b))


def poisson_rate(x: float) -> float:
    """(1+x) ln(1+x) - x: the large-deviation rate of a unit-mean Poisson
    variable at 1+x.  Strictly increasing from 0 on x >= 0."""
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    return (1.0 + x) * math.log1p(x) - x


def upper_tail_root(lam: float) -> float:
    """The deviation c at which the upper-tail coefficient vanishes.

    Solves poisson_rate(x) = 1/lam on [0, 1] by bisection (the bracket is
    guaranteed because poisson_rate(1) = 1/maxring_critical_scale > 1/lam)
    and returns c = lam * x.  Since a(lam, lam*x) = 1 - lam*poisson_rate(x),
    the returned c satisfies |a(lam, c)| below 1e-7 and c < lam.  Defined
    only for lam above maxring_critical_scale().
    """
    if not lam > maxring_critical_scale():
        raise ValueError(f"scale must exceed {maxring_critical_scale():.6f}, got {lam}")
    target = 1.0 / lam
    lo, hi = 0.0, 1.0
    for _ in range(60):  # interval ~1e-18: root residual far below 1e-12
        mid = 0.5 * (lo + hi)
        if poisson_rate(mid) < target:
            lo = mid
        else:
            hi = mid
    return lam * 0.5 * (lo + hi)


def maxring_tail_bound(n: int, k: int, t: float) -> float:
    """Bound exp(A) + exp(B) on P[|largest ring - 2k| > t], where

        A = ln(n) + t - (k+t) ln(1+t/k)      (upper tail)
        B = -t - (k-t) ln(1-t/k)             (lower tail)

    Requires 0 < t < k so both tails are in range.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    if t >= k:
        raise ValueError(f"lower tail needs t < k, got t={t}, k={k}")
    a_exp = math.log(n) + t - (k + t) * math.log1p(t / k)
    b_exp = -t - (k - t) * math.log1p(-t / k)
    return math.exp(a_exp) + math.exp(b_exp)


def maxring_tail_bound_scaled(n: int, lam: float, c: float) -> float:
    """Scaled form 2 * n^(-h(lam; c)) of the largest-ring deviation bound.

    Valid (h > 0) whenever upper_tail_root(lam) < c < lam, which requires
    lam above maxring_critical_scale(); both conditions are enforced.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not upper_tail_root(lam) < c < lam:
        raise ValueError(
            f"need upper_tail_root(lam) < c < lam, got c={c} with lam={lam}"
        )
    return 2.0 * n ** (-tail_exponents(lam, c).h)
