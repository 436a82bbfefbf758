"""Output checks: every workload output is compared with a computation made
apart from the program, or with properties it must have.

`check(cli_args, text)` returns the problems of each operation the command
answers (`operations`), an empty list when it is right.  The checks run in
the benchmark's own process, outside every timed section.  They share one
thing with the program: pairing tables are
regenerated through the public `scheme.generate_pairing`, keyed by
`sampling.fold(seed, K)` as the montecarlo module documents.  Connectivity
comes from scipy's `connected_components`, intervals from the Wilson
quadratic, theory values from 50-digit mpmath.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import gammaln

from pairdeploy import sampling, scheme

Z95 = 1.96  # the program's documented Wilson z
UNION_TERMS = 500  # leading union-bound terms summed at 50 digits
TAIL_LOG_LIMIT = -4000 * math.log(10)  # remainder below 1e-4000 of the total


def _flags(cli_args: list[str]) -> dict[str, str]:
    return dict(zip(cli_args[1::2], cli_args[2::2]))


def _k_values(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def _deployed(n: int, gamma: float) -> int:
    return int(Fraction(str(gamma)) * n)


def _rows(text: str, header: list[str]) -> tuple[list[dict], list[str]]:
    lines = text.splitlines()
    trailer = [ln for ln in lines if ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(ln for ln in lines if not ln.startswith("#"))))
    if reader.fieldnames != header:
        raise ValueError(f"header {reader.fieldnames} != {header}")
    return list(reader), trailer


def wilson(successes: int, trials: int) -> tuple[float, float]:
    """Roots of (p_hat - p)^2 = z^2 p (1 - p) / trials."""
    p_hat, c = successes / trials, Z95 * Z95 / trials
    a, b, q = 1.0 + c, -(2.0 * p_hat + c), p_hat * p_hat
    root = math.sqrt(max(b * b - 4.0 * a * q, 0.0))
    return max(0.0, (-b - root) / (2.0 * a)), min(1.0, (-b + root) / (2.0 * a))


def _estimate_problems(row: dict, successes: int, trials: int) -> list[str]:
    out = []
    label = ",".join(row.values())
    if int(row["trials"]) != trials or int(row["successes"]) != successes:
        out.append(f"{label}: a recount gives {successes}/{trials} successes")
    low, high = wilson(int(row["successes"]), int(row["trials"]))
    p_hat = int(row["successes"]) / int(row["trials"])
    for key, ref in (("p_hat", p_hat), ("ci_low", low), ("ci_high", high)):
        if abs(float(row[key]) - ref) > 0.5e-6 + 1e-12 or len(row[key].split(".")[-1]) != 6:
            out.append(f"{label}: {key} should be {ref:.6f}")
    return out


def view_outcomes(tables: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per table: is the view of its first m nodes connected, and how many of
    them are isolated.  All views go into one block-diagonal graph, so scipy
    labels every component in a single call."""
    trials = len(tables)
    sub = tables[:, :m, :]
    keep = sub < m
    offset = (np.arange(trials, dtype=np.int32) * m)[:, None, None]
    indices = (sub + offset)[keep]
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=2).ravel())))
    size = trials * m
    graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(size, size))
    n_comp, labels = connected_components(graph, directed=False)
    owner = np.empty(n_comp, dtype=np.int64)
    owner[labels] = np.arange(size) // m
    single = np.bincount(labels, minlength=n_comp) == 1
    components = np.bincount(owner, minlength=trials)
    return components == 1, np.bincount(owner[single], minlength=trials)


def _tables(n: int, k: int, trials: int, seed: int) -> np.ndarray:
    params = scheme.SchemeParams(n, k)
    table_seed = sampling.fold(seed, k)
    tables = np.empty((trials, n, k), dtype=np.int32)
    for t in range(trials):
        tables[t] = scheme.generate_pairing(params, table_seed, t).partners
    return tables


def check_sweep(cli_args: list[str], text: str) -> list[str]:
    f = _flags(cli_args)
    n, trials, seed = int(f["--n"]), int(f["--trials"]), int(f["--seed"])
    ks, gammas = _k_values(f["--k"]), [float(g) for g in f["--gamma"].split(",")]
    rows, _ = _rows(text, ["kind", "gamma", "K", "n", "trials", "successes", "p_hat", "ci_low", "ci_high"])
    keys = [(kind, f"{g:g}", k) for kind in ("connected", "no_isolated") for g in gammas for k in ks]
    got = [(r["kind"], r["gamma"], int(r["K"])) for r in rows]
    if got != keys:
        return [f"sweep rows {got[:3]}... do not match the requested cells"]
    problems = [f"{r}: n is not {n}" for r in rows if int(r["n"]) != n]
    by_key = dict(zip(keys, rows))
    for k in ks:
        tables = _tables(n, k, trials, seed)
        for g in gammas:
            connected, isolated = view_outcomes(tables, _deployed(n, g))
            c_row, i_row = by_key[("connected", f"{g:g}", k)], by_key[("no_isolated", f"{g:g}", k)]
            problems += _estimate_problems(c_row, int(connected.sum()), trials)
            problems += _estimate_problems(i_row, int((isolated == 0).sum()), trials)
            if int(c_row["successes"]) > int(i_row["successes"]):
                problems.append(f"gamma={g} K={k}: connected > no_isolated")
    return problems


def check_phased(cli_args: list[str], text: str) -> list[str]:
    f = _flags(cli_args)
    n, k, trials, seed = int(f["--n"]), int(f["--k"]), int(f["--trials"]), int(f["--seed"])
    gammas = [float(g) for g in f["--schedule"].split(",")]
    rows, _ = _rows(text, ["n", "K", "schedule", "trials", "successes", "p_hat", "ci_low", "ci_high"])
    labels = [",".join(f"{g:g}" for g in gammas)] + [f"{g:g}" for g in gammas]
    if [r["schedule"] for r in rows] != labels:
        return [f"phased rows {[r['schedule'] for r in rows]} != {labels}"]
    problems = [f"{r}: n, K are not {n}, {k}" for r in rows if (int(r["n"]), int(r["K"])) != (n, k)]
    tables = _tables(n, k, trials, seed)
    phases = [view_outcomes(tables, _deployed(n, g))[0] for g in gammas]
    joint = np.logical_and.reduce(phases)
    for row, outcome in zip(rows, [joint] + phases):
        problems += _estimate_problems(row, int(outcome.sum()), trials)
        if int(rows[0]["successes"]) > int(row["successes"]):
            problems.append(f"joint exceeds phase {row['schedule']}")
    return problems


def check_census(cli_args: list[str], text: str) -> list[str]:
    f = _flags(cli_args)
    n, k, trials = int(f["--n"]), int(f["--k"]), int(f["--trials"])
    rows, trailer = _rows(text, ["size", "count", "is_max_histogram"])
    hist = [(int(r["size"]), int(r["count"])) for r in rows if r["is_max_histogram"] == "0"]
    maxes = [(int(r["size"]), int(r["count"])) for r in rows if r["is_max_histogram"] == "1"]
    if len(hist) + len(maxes) != len(rows) or not hist or not maxes:
        return ["census rows are not split into a histogram and a max histogram"]
    sizes = np.array([s for s, _ in hist], dtype=np.int64)
    counts = np.array([c for _, c in hist], dtype=np.int64)
    rings = trials * n
    problems = []
    if sum(counts) != rings:
        problems.append(f"histogram counts sum to {sum(counts)}, not trials*n = {rings}")
    if int((sizes * counts).sum()) != 2 * k * rings:
        problems.append(f"sizes*counts sum to {int((sizes * counts).sum())}, not 2Kn*trials")
    if sum(c for _, c in maxes) != trials:
        problems.append("max histogram does not sum to trials")
    if min(s for s, _ in hist + maxes) < k or min(c for _, c in hist + maxes) < 1:
        problems.append("a size below K or a count below 1")
    if sizes.tolist() != sorted(set(sizes.tolist())):
        problems.append("histogram sizes are not strictly increasing")
    largest = int(sizes.max())
    if max(s for s, _ in maxes) != largest:
        problems.append("largest ring differs between the two histograms")
    expect = (
        f"# mean_size={(sizes * counts).sum() / rings:.6f}"
        f" frac_over_3k={counts[sizes > 3 * k].sum() / rings:.6f} largest={largest}"
    )
    if trailer != [expect]:
        problems.append(f"trailer {trailer} != [{expect!r}]")
    # reverse degree ~ Binomial(n-1, K/(n-1)); its variance estimate must agree
    # with K(1 - K/(n-1)) within 6 standard errors of the estimate
    p = k / (n - 1)
    var = (n - 1) * p * (1 - p)
    mu4 = var * (1 + 3 * (n - 3) * p * (1 - p))
    est = float(((sizes - 2 * k) ** 2 * counts).sum() / rings)
    se = math.sqrt((mu4 - var * var) / rings)
    if abs(est - var) > 6 * se:
        problems.append(f"reverse-degree variance {est:.6f} vs {var:.6f} (se {se:.2g})")
    return problems


# -- theory: 50-digit references -------------------------------------------

mpmath.mp.dps = 50


def _ratio(x: int, y: int, k: int) -> mpmath.mpf:
    """C(x, k) / C(y, k), exact rational rounded once to 50 digits."""
    if x < k:
        return mpmath.mpf(0)
    f = Fraction(1)
    for i in range(k):
        f *= Fraction(x - i, y - i)
    return mpmath.mpf(f.numerator) / f.denominator


def _isolation(n: int, k: int, g: float) -> mpmath.mpf:
    m = _deployed(n, g)
    return _ratio(n - m, n - 1, k) * _ratio(n - 2, n - 1, k) ** (m - 1)


def _event(n: int, k: int, g: float, r: int) -> mpmath.mpf:
    m = _deployed(n, g)
    return _ratio(n - m + r - 1, n - 1, k) ** r * _ratio(n - r - 1, n - 1, k) ** (m - r)


def _union_bound(n: int, k: int, g: float) -> mpmath.mpf:
    """Leading UNION_TERMS terms; raises if the rest could reach 1e-4000 of it."""
    m = _deployed(n, g)
    lead = min(UNION_TERMS, m // 2)
    total = mpmath.fsum(mpmath.binomial(m, r) * _event(n, k, g, r) for r in range(1, lead + 1))
    r = np.arange(lead + 1, m // 2 + 1, dtype=np.float64)
    r = r[n - m + r - 1 >= k]
    if len(r):

        def log_ratio(x, y):
            return gammaln(x + 1) - gammaln(x - k + 1) - gammaln(y + 1) + gammaln(y - k + 1)

        log_terms = (
            gammaln(m + 1) - gammaln(r + 1) - gammaln(m - r + 1)
            + r * log_ratio(n - m + r - 1, n - 1) + (m - r) * log_ratio(n - r - 1, n - 1)
        )
        # margin of 1.0 covers the double-precision error of the bound itself
        if log_terms.max() + math.log(len(r)) + 1.0 - float(mpmath.log(total)) > TAIL_LOG_LIMIT:
            raise ValueError(f"union bound {n},{k},{g}: {lead} terms do not suffice")
    return total


THEORY_FLAGS = {
    "--isolation": ("isolation_prob", [int, int, float], lambda n, k, g: _isolation(n, k, g)),
    "--expected-isolated": (
        "expected_isolated",
        [int, int, float],
        lambda n, k, g: _deployed(n, g) * _isolation(n, k, g),
    ),
    "--isolation-event": ("isolation_event", [int, int, float, int], _event),
    "--union-bound": ("union_bound", [int, int, float], _union_bound),
}


@functools.cache
def theory_reference(flag: str, spec: str) -> tuple[str, list[str], Decimal]:
    """(quantity, printed argument columns, correctly rounded 9-digit value)."""
    quantity, types, formula = THEORY_FLAGS[flag]
    args = [t(v) for t, v in zip(types, spec.split(","))]
    cols = [f"{a:g}" if isinstance(a, float) else str(a) for a in args]
    value = Decimal(mpmath.nstr(formula(*args), 9))
    return quantity, cols + [""] * (4 - len(cols)), value


def check_theory(cli_args: list[str], text: str) -> dict[str, list[str]]:
    rows, _ = _rows(text, ["quantity", "arg1", "arg2", "arg3", "arg4", "value"])
    expected = {}
    for query in operations(cli_args):
        quantity, cols, value = theory_reference(*query.split(" "))
        expected[(quantity, *cols)] = (query, value)
    got = {(r["quantity"], r["arg1"], r["arg2"], r["arg3"], r["arg4"]): r["value"] for r in rows}
    if len(rows) != len(expected) or set(got) != set(expected):
        problem = f"theory rows {sorted(got)} do not answer the queries {sorted(expected)}"
        return {query: [problem] for query, _ in expected.values()}
    return {
        query: [] if Decimal(got[key]) == value else [f"printed {got[key]}, correctly rounded {value}"]
        for key, (query, value) in expected.items()
    }


CHECKS = {
    "sweep": check_sweep,
    "phased": check_phased,
    "census": check_census,
}


def operations(cli_args: list[str]) -> list[str]:
    """What one command answers: each theory query, or the whole command."""
    if cli_args[0] == "theory":
        return [f"{flag} {spec}" for flag, spec in zip(cli_args[1::2], cli_args[2::2])]
    return [" ".join(cli_args)]


def check(cli_args: list[str], text: str) -> dict[str, list[str]]:
    """Problems of each operation of `cli_args`; an empty list when it is right."""
    try:
        if cli_args[0] == "theory":
            return check_theory(cli_args, text)
        return {operations(cli_args)[0]: CHECKS[cli_args[0]](cli_args, text)}
    except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
        return {op: [f"unreadable {cli_args[0]} output: {exc!r}"] for op in operations(cli_args)}
