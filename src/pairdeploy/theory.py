"""Closed-form calculators for the pairwise scheme under gradual deployment.

Everything here is finite-n evaluation of exact formulas: the isolation
threshold governing how many selections per node a partial deployment
needs, the exact probability that r deployed nodes are cut off, a union
bound on the probability the deployed key graph is disconnected, and the
exponent algebra bounding the largest key ring.  All logarithms are natural.

Binomial-coefficient ratios C(x,K)/C(y,K) are evaluated as exactly rounded
log-space sums, of log((x-l)/(y-l)) where 2x <= y and of log1p((x-y)/(y-l))
elsewhere, which stay finite and accurate to below 1e-13 relative error for
n up to 1e6, deployment fraction 1 included; C(a,b) = 0 when a < b, so
degenerate configurations yield probability 0 instead of errors.  A
probability below the smallest positive double (about 4.9e-324) underflows
to 0.0 as well: at n = 1e6 that already happens to isolation events of a
few nodes, e.g. 5.1e-418 at K=60, gamma=0.9, r=5.
"""

from __future__ import annotations

import math

from .scheme import SchemeParams, gamma_n_exact, phase_size

__all__ = [
    "isolation_threshold",
    "maxring_critical_scale",
    "isolation_prob_exact",
    "expected_isolated",
    "isolation_event_prob",
    "connectivity_union_bound",
    "connectivity_lower_bound_full",
    "upper_tail_coeff",
    "lower_tail_coeff",
    "decay_exponent",
    "poisson_rate",
    "upper_tail_root",
    "maxring_tail_bound",
]


# -log of a term too small to move a running sum >= 1: below e^-37.5, the
# term stays below 2^-53 (e^-36.7), half an ulp of 1, after its own rounding
_NEGLIGIBLE = 37.5

# a log below which exp gives 0.0: ln(2^-1075) - 1, about -746.13.  The
# exact exp there is below 2^-1075/e, under 0.19 of the smallest subnormal
# 2^-1074, so an exp that errs by less than 0.8 of that subnormal, as
# math.exp does, rounds it to 0.0
_EXP_ZERO = -1075 * math.log(2) - 1


def isolation_threshold(gamma: float) -> float:
    """Critical scale r(gamma) = (1 - ln(1-gamma)/gamma)^-1 for isolated nodes.

    With k ~ c*ln(n)/gamma selections, the deployed graph has isolated
    nodes with probability -> 1 when c < r(gamma) and -> 0 when c > r(gamma).
    This fixes k only to leading order in ln(n): the finite graph's 0.5
    crossing sits a constant (ln(gamma) - ln(ln 2))/(gamma - ln(1-gamma))
    from r(gamma)*ln(n)/gamma, about -2.94 at gamma = 0.2, for every n.
    Strictly decreasing on (0,1), from 1/2 at 0+ down to 0 at 1-.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be strictly inside (0, 1), got {gamma}")
    return 1.0 / (1.0 - math.log1p(-gamma) / gamma)


def maxring_critical_scale() -> float:
    """Scale 1/(2 ln 2 - 1): above it the largest key ring concentrates at 2k."""
    return 1.0 / (2.0 * math.log(2.0) - 1.0)


def _log_binom_ratio(x: int, y: int, k: int) -> float:
    """log of C(x,k)/C(y,k) for k <= y, x above or below y; -inf when
    C(x,k) = 0.  The fsum of k logs of the ratios (x-i)/(y-i), i < k."""
    if x < k:
        return -math.inf
    if 2 * x <= y:
        # each ratio is at most 1/2, and rounding it moves its log by 2^-53 at
        # most; log1p would amplify that by (y-i)/(x-i), its argument near -1
        return math.fsum(math.log((x - i) / (y - i)) for i in range(k))
    # log((x-i)/(y-i)) = log1p((x-y)/(y-i)): no cancellation between two logs
    return math.fsum(math.log1p((x - y) / (y - i)) for i in range(k))


def _log_choose(m: int, r: int) -> float:
    """log C(m, r) for r <= m.  Up to r = 64 it is the fsum of r log1p
    terms; the lgamma difference cancels two values near m*ln(m), whose ulp
    is about 2e-9 at m = 1e6, and is kept only where the sum's r steps
    would cost too much."""
    if r <= 64:
        return _log_binom_ratio(m, r, r)
    return math.lgamma(m + 1) - math.lgamma(r + 1) - math.lgamma(m - r + 1)


def _group_log_terms(n: int, k: int, m: int, r: int) -> tuple[float, float]:
    """The two log factors of an r-node group among m deployed nodes:
    log C(n-m+r-1, k)/C(n-1, k), one group node selecting only outside the
    deployed rest, and log C(n-r-1, k)/C(n-1, k), one deployed node outside
    the group selecting none of it."""
    return _log_binom_ratio(n - m + r - 1, n - 1, k), _log_binom_ratio(n - r - 1, n - 1, k)


def _split(x: float) -> tuple[float, float]:
    """x as hi + lo exactly, hi holding its leading 26 bits and lo the other
    27 (Veltkamp's split), so an integer below 2^26 times either is exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _event_prob(n: int, k: int, m: int, r: int) -> float:
    """(C(n-m+r-1, k)/C(n-1, k))^r * (C(n-r-1, k)/C(n-1, k))^(m-r), from the
    two log factors; a zero binomial, or underflow, gives 0.0.

    The log, r*grp + (m-r)*rest, is the fsum of exact products, carried as
    hi + lo: one double would round it by up to 2^-44 past 512 in size, and
    exp would turn that into a relative error of 5.7e-14.  exp(hi)*exp(lo)
    keeps those bits.  Products are exact for r and m below 2^26.
    """
    grp, rest = _group_log_terms(n, k, m, r)
    if m > r and rest == -math.inf or grp == -math.inf:
        return 0.0
    parts = [r * h for h in _split(grp)] + ([(m - r) * h for h in _split(rest)] if m > r else [])
    hi = math.fsum(parts)
    p = math.exp(hi)
    return p + p * math.fsum([*parts, -hi])


def _group_phase_size(n: int, k: int, gamma: float) -> int:
    """m = floor(gamma*n), after the preconditions of the group formulas:
    2(k+1) < n and gamma*n > 2."""
    SchemeParams(n, k)
    if not 2 * (k + 1) < n:
        raise ValueError(f"need 2(k+1) < n, got k={k}, n={n}")
    if not gamma_n_exact(n, gamma) > 2:
        raise ValueError(f"need gamma*n > 2, got gamma={gamma}, n={n}")
    return phase_size(n, gamma)


def isolation_prob_exact(n: int, k: int, gamma: float) -> float:
    """Exact probability a fixed deployed node is isolated among the first
    m = floor(gamma*n) nodes:

        C(n-m, k)/C(n-1, k) * (C(n-2, k)/C(n-1, k))^(m-1)

    The first factor is its own selections all avoiding deployed nodes; the
    second, none of the other m-1 deployed nodes selecting it.  Zero when
    k > n - m (the node cannot avoid the deployed set), and also when the
    probability is below the smallest positive double and underflows.
    """
    SchemeParams(n, k)
    m = phase_size(n, gamma)
    if m < 2:
        raise ValueError(f"need floor(gamma*n) >= 2, got {m}")
    return _event_prob(n, k, m, 1)


def expected_isolated(n: int, k: int, gamma: float) -> float:
    """Expected number of isolated deployed nodes: floor(gamma*n) times
    isolation_prob_exact."""
    return phase_size(n, gamma) * isolation_prob_exact(n, k, gamma)


def isolation_event_prob(n: int, k: int, gamma: float, r: int) -> float:
    """Probability that a fixed set of r deployed nodes has no key-graph
    edge leaving it into the rest of the deployed set:

        (C(n-m+r-1, k)/C(n-1, k))^r * (C(n-r-1, k)/C(n-1, k))^(m-r)

    with m = floor(gamma*n).  Requires 2(k+1) < n and gamma*n > 2; zero
    binomials propagate to 0, and so does a probability below the smallest
    positive double, which underflows.  Equals isolation_prob_exact at r = 1.
    """
    m = _group_phase_size(n, k, gamma)
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= floor(gamma*n) = {m}, got r={r}")
    return _event_prob(n, k, m, r)


def connectivity_union_bound(n: int, k: int, gamma: float) -> float:
    """Union bound on P[deployed key graph not connected]:

        sum_{r=1..floor(gamma*n/2)} C(m, r) * isolation_event_prob(n,k,gamma,r)

    summed in log space.  A valid upper bound whenever 2(k+1) < n and
    gamma*n > 2, full deployment included: a zero group binomial (small r
    with k+1 > n - m) gives a -inf log term, which adds 0.  It may exceed 1
    (vacuous but returned); past the double range it is math.inf.  A vacuous
    bound is less precise: its largest terms, near r = m/2, are sums of log
    parts of size about m that cancel, each rounded to an ulp of its size,
    so at n = 1e5 it can be off by about 1e-10.

    Only the terms that can change the returned double are evaluated.  With
    t_r the computed log of term r and top the largest t_r, the value is
    exp(top) * S, where S adds exp(t_r - top) left to right in order of r.
    Once exp(top - top) = 1 is in, S >= 1, and adding a term below 2^-53,
    half an ulp of 1, leaves S unchanged.  For every s <= m//2 the exact log
    term satisfies log T_s <= s * B(s), where

        B(R) = 1 + ln(m/R) + g - k*(m - m//2)/(n-1),
        g    = log C(n-m+m//2-1, k)/C(n-1, k) <= 0,

    because C(m,s) <= (e*m/s)^s; the group factor C(n-m+s-1,k)/C(n-1,k) is
    at most exp(g), C(x,k) growing with x; and the rest factor
    C(n-s-1,k)/C(n-1,k) <= (1 - s/(n-1))^k <= exp(-k*s/(n-1)), raised to
    m - s >= m - m//2.  B falls as R grows, so once B(R) < 0 every s >= R has
    log T_s <= s*B(R) <= R*B(R), and the terms s >= R total at most
    exp(R*B(R)) / (1 - exp(B(R))).  The loop stops before term R when the log
    of that total is below top - 37.5 - margin.  Every later t_s is then
    below top - 37.5, so top is final, and exp(t_s - top), rounded, is below
    e^-37 < 2^-53: S, and the value, are those of the full sum bit for bit.
    A leading -inf term cannot stop the loop, as top starts at -inf, and g
    is finite: n-m+m//2-1 >= n//2-1 >= k.

    margin = 2^-44 * (lgamma(m+1) + k*m*n) bounds the rounding error of t_s
    and of the stop test, 512 units of 2^-53 against about 32 needed: each
    is a few operations of at most 8 ulps (lgamma, log, log1p) on values at
    most lgamma(m+1) in size, plus the sums of k log-ratio terms, scaled by
    r <= m/2 or m - r <= m.  A ratio term is log((x-i)/(y-i)) where
    2x <= y: the rounded quotient moves it by at most 2^-53, an ulp of 1.
    Elsewhere it is log1p((x-y)/(y-i)), whose argument carries relative
    error 2^-53, which moves its value by at most n/2 units of 2^-53, since
    1 + z >= 2/n there.  For r <= 64, log C(m, r) is instead the fsum of r
    positive log1p terms totalling at most lgamma(m+1): each is off by an
    ulp of itself, and by at most 2^-53 from its argument, as 1 + z >= 1
    there, so at most 3 units in all, r being below k*m*n.  Where no R
    qualifies, near the vacuous regime (k*gamma small), every term is
    summed.  At gamma = 1 B falls slowly: at (1e6, 3, 1.0) the stop comes
    only past R of about n/13, after 0.5 s.

    The loop also stops before term R, and returns 0.0, when both top and
    the log of the tail bound lie below _EXP_ZERO (ln 2^-1075 - 1, about
    -746.13), the tail's by margin as well.  Every t_s, before R or after,
    is then below _EXP_ZERO, so the full sum's own top is, and its exp is
    0.0; the full sum, exp(top) * S with 1 <= S <= m, is 0.0 too.  Near
    gamma = 1 the first stop waits for the tail to fall 37.5 below a top
    that is itself far below the double range: (1e6, 80, 1.0) summed 835
    terms that way, and stops after 9 this way.
    """
    m = _group_phase_size(n, k, gamma)
    half = m // 2
    slope = 1 + _log_binom_ratio(n - m + half - 1, n - 1, k) - k * (m - half) / (n - 1)
    margin = 2.0**-44 * (math.lgamma(m + 1) + k * m * n)
    log_terms = []
    top = -math.inf
    for r in range(1, half + 1):
        b = slope + math.log(m / r)
        if b < 0:
            tail = r * b - math.log(-math.expm1(b))
            if tail < top - _NEGLIGIBLE - margin:
                break
            if tail < _EXP_ZERO - margin and top < _EXP_ZERO:
                return 0.0
        grp, rest = _group_log_terms(n, k, m, r)
        log_terms.append(_log_choose(m, r) + r * grp + (m - r) * rest)
        top = max(top, log_terms[-1])
    # Plain left-to-right addition, which the stop above is proven against:
    # from Python 3.12 the builtin sum() of floats is compensated, and its
    # result would depend on the interpreter.
    total = 0.0
    for t in log_terms:
        total += math.exp(t - top)
    try:
        return math.exp(top) * total
    except OverflowError:
        return math.inf


def connectivity_lower_bound_full(n: int) -> float:
    """Lower bound 1 - 27/(2 n^2) on P[full graph connected] for k >= 2.

    The union bound certifies it where the two were checked against each
    other: connectivity_union_bound(n, k, 1.0) <= 27/(2 n^2) for k in
    {2, 3, 5, 10} at every n from 2(k+1) + 1 (n = 7 at k = 2) to 1000, and
    at k = 2 for n = 1e4, 1e5 and 1e6.  The check does not apply below
    n = 7, where the union bound needs 2(k+1) < n; there the value is
    returned unchecked, and at n <= 3 it is negative, which is vacuous.
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


def decay_exponent(lam: float, c: float) -> float:
    """h = -max(a, b): the largest-ring bound at k = lam*ln(n), t = c*ln(n) is <= 2 n^-h."""
    return -max(upper_tail_coeff(lam, c), lower_tail_coeff(lam, c))


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
    the returned c satisfies |a(lam, c)| below 1e-7 and c < lam, for lam
    above maxring_critical_scale() and up to 1e12; any other lam raises
    ValueError.  poisson_rate errs by about 2^-52*sqrt(lam/2) relative near
    the root, so |a| is about 1e-10 at 1e12 (1e-6 at 1e20).
    """
    if not maxring_critical_scale() < lam <= 1e12:
        raise ValueError(f"scale must be in ({maxring_critical_scale():.6f}, 1e12], got {lam}")
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
        B = -t - (k-t) ln(1-t/k)             (lower tail: lower_tail_coeff(k, t))

    Requires a valid scheme (n, k) and 0 < t < k so both tails are in range.
    """
    SchemeParams(n, k)
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    if t >= k:
        raise ValueError(f"lower tail needs t < k, got t={t}, k={k}")
    a_exp = math.log(n) + t - (k + t) * math.log1p(t / k)
    return math.exp(a_exp) + math.exp(lower_tail_coeff(k, t))
