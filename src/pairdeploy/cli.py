"""Command-line front end: experiment runners and formula calculators.

Subcommands
    sweep    connectivity and no-isolated-node curves over k and gamma
    phased   joint connectivity through a deployment schedule
    census   key-ring size census with per-trial maxima
    theory   closed-form values (thresholds, bounds, exact probabilities)

All output is CSV (default) or JSON, to stdout unless --out is given.  An
--out file is written to a temporary file beside it and renamed into place
only when the run succeeds, so a failed run leaves an existing file as it
was.
Every run is deterministic: the default seed is the fixed constant 1729,
never overridable by environment, only by --seed.  K ranges use the
inclusive grammar "a..b"; lists are comma-separated.

Exit codes: 0 success, 1 runtime/output failure, 2 usage error.  Past
argument parsing, a failure prints one "pairdeploy: ..." line to stderr,
never a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import IO, Sequence

from . import montecarlo, theory
from .scheme import SchemeParams

DEFAULT_SEED = 1729

_ESTIMATE_FIELDS = ["trials", "successes", "p_hat", "ci_low", "ci_high"]

# what each command produces: CSV rows, an optional CSV trailer line, the JSON document
_Output = tuple[list[dict], str | None, dict]


def _prob(x: float) -> str:
    return f"{x:.6f}"


def _num(x: float) -> str:
    return f"{x:.9g}"


def _gamma_str(g: float) -> str:
    return f"{g:g}"


def parse_k_values(text: str, n: int) -> tuple[int, ...]:
    """Parse "7", "1..20" (inclusive), or "1,5,9".

    Both ends of a range are checked against 1..n-1 before the range is
    built, so a huge range fails without allocating.
    """
    text = text.strip()
    if ".." in text:
        lo_txt, _, hi_txt = text.partition("..")
        lo, hi = int(lo_txt), int(hi_txt)
        if lo > hi:
            raise ValueError(f"empty k range {text!r}")
        SchemeParams(n, lo)
        SchemeParams(n, hi)
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(","))


def parse_gamma_list(text: str) -> tuple[float, ...]:
    """Parse a comma-separated list of deployment fractions."""
    return tuple(float(tok) for tok in text.split(","))


def _parse_args_list(text: str, types: Sequence[type], flag: str) -> tuple:
    toks = text.split(",")
    if len(toks) != len(types):
        raise ValueError(f"{flag} expects {len(types)} comma-separated values, got {text!r}")
    return tuple(t(tok) for t, tok in zip(types, toks))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdeploy",
        description="Pairwise key predistribution under gradual deployment: "
        "Monte Carlo experiments and exact calculators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_sweep = sub.add_parser("sweep", help="connectivity / no-isolated curves")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--k", required=True, help='single "7", range "1..20", or list "1,5,9"')
    p_sweep.add_argument("--gamma", required=True, help='fractions, e.g. "0.2,0.4,0.6,0.8"')
    p_sweep.add_argument("--trials", type=int, default=montecarlo.SWEEP_TRIALS_DEFAULT)
    p_sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sweep.add_argument("--workers", type=int, default=None)
    add_io(p_sweep)

    p_phased = sub.add_parser("phased", help="joint connectivity through a schedule")
    p_phased.add_argument("--n", type=int, required=True)
    p_phased.add_argument("--k", type=int, required=True)
    p_phased.add_argument("--schedule", required=True, help='increasing fractions, e.g. "0.25,0.5,1.0"')
    p_phased.add_argument("--trials", type=int, default=montecarlo.SWEEP_TRIALS_DEFAULT)
    p_phased.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_io(p_phased)

    p_census = sub.add_parser("census", help="key-ring size census")
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--k", type=int, required=True)
    p_census.add_argument("--trials", type=int, default=montecarlo.CENSUS_TRIALS_DEFAULT)
    p_census.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_io(p_census)

    p_theory = sub.add_parser("theory", help="closed-form calculators")
    p_theory.add_argument("--r-gamma", help="isolation thresholds for these fractions")
    p_theory.add_argument("--lambda-star", action="store_true", help="critical max-ring scale")
    p_theory.add_argument("--c-of-lambda", help="deviation roots c for these scales")
    p_theory.add_argument("--h-exponent", action="append", default=[], metavar="LAM,C")
    p_theory.add_argument("--isolation", action="append", default=[], metavar="N,K,GAMMA")
    p_theory.add_argument("--expected-isolated", action="append", default=[], metavar="N,K,GAMMA")
    p_theory.add_argument("--isolation-event", action="append", default=[], metavar="N,K,GAMMA,R")
    p_theory.add_argument("--union-bound", action="append", default=[], metavar="N,K,GAMMA")
    p_theory.add_argument("--connectivity-bound", help="full-deployment bounds for these n")
    p_theory.add_argument("--maxring-bound", action="append", default=[], metavar="N,K,T")
    add_io(p_theory)

    return parser


def _estimate_fields(est: montecarlo.Estimate) -> dict:
    return {
        "trials": est.trials,
        "successes": est.successes,
        "p_hat": _prob(est.p_hat),
        "ci_low": _prob(est.ci_low),
        "ci_high": _prob(est.ci_high),
    }


def _sweep(args: argparse.Namespace) -> _Output:
    plan = montecarlo.ExperimentPlan(
        n=args.n,
        k_values=parse_k_values(args.k, args.n),
        gammas=parse_gamma_list(args.gamma),
        trials=args.trials,
        base_seed=args.seed,
        workers=args.workers,
    )
    rows = [
        {"kind": kind, "gamma": _gamma_str(g), "K": k, "n": plan.n, **_estimate_fields(curve[g, k])}
        for kind, curve in montecarlo.run_sweep(plan).items()
        for g in plan.gammas
        for k in plan.k_values
    ]
    return rows, None, {"command": "sweep", "seed": args.seed, "rows": rows}


def _phased(args: argparse.Namespace) -> _Output:
    schedule = montecarlo.DeploymentSchedule(parse_gamma_list(args.schedule))
    joint, phases = montecarlo.run_phased_detail(
        args.n, args.k, schedule, args.trials, args.seed
    )
    labelled = [(",".join(_gamma_str(g) for g in schedule.gammas), joint)]
    labelled += [(_gamma_str(g), phases[g]) for g in schedule.gammas]
    rows = [
        {"n": args.n, "K": args.k, "schedule": label, **_estimate_fields(est)}
        for label, est in labelled
    ]
    return rows, None, {"command": "phased", "seed": args.seed, "rows": rows}


def _census(args: argparse.Namespace) -> _Output:
    census = montecarlo.run_keyring_census(args.n, args.k, args.trials, args.seed)
    histogram = sorted(census.histogram.items())
    max_histogram = sorted(census.max_histogram.items())
    rows = [{"size": s, "count": c, "is_max_histogram": 0} for s, c in histogram]
    rows += [{"size": s, "count": c, "is_max_histogram": 1} for s, c in max_histogram]
    trailer = (
        f"# mean_size={_prob(census.mean_size)}"
        f" frac_over_3k={_prob(census.frac_over_3k)}"
        f" largest={census.largest}"
    )
    doc = {
        "command": "census",
        "seed": args.seed,
        "n": census.n,
        "k": census.k,
        "trials": census.trials,
        "histogram": [[s, c] for s, c in histogram],
        "max_histogram": [[s, c] for s, c in max_histogram],
        "mean_size": census.mean_size,
        "frac_over_3k": census.frac_over_3k,
        "largest": census.largest,
    }
    return rows, trailer, doc


def _theory(args: argparse.Namespace) -> _Output:
    def row(quantity: str, a1="", a2="", a3="", a4="", value: float = 0.0) -> dict:
        return {
            "quantity": quantity,
            "arg1": a1,
            "arg2": a2,
            "arg3": a3,
            "arg4": a4,
            "value": _num(value),
        }

    rows: list[dict] = []
    if args.r_gamma:
        for g in parse_gamma_list(args.r_gamma):
            rows.append(row("r_gamma", _gamma_str(g), value=theory.isolation_threshold(g)))
    if args.lambda_star:
        rows.append(row("lambda_star", value=theory.maxring_critical_scale()))
    if args.c_of_lambda:
        for lam in (float(t) for t in args.c_of_lambda.split(",")):
            rows.append(row("c_of_lambda", _num(lam), value=theory.upper_tail_root(lam)))
    for spec in args.h_exponent:
        lam, c = _parse_args_list(spec, [float, float], "--h-exponent")
        rows.append(row("h_exponent", _num(lam), _num(c), value=theory.tail_exponents(lam, c).h))
    for spec in args.isolation:
        n, k, g = _parse_args_list(spec, [int, int, float], "--isolation")
        rows.append(
            row("isolation_prob", n, k, _gamma_str(g), value=theory.isolation_prob_exact(n, k, g))
        )
    for spec in args.expected_isolated:
        n, k, g = _parse_args_list(spec, [int, int, float], "--expected-isolated")
        rows.append(
            row("expected_isolated", n, k, _gamma_str(g), value=theory.expected_isolated(n, k, g))
        )
    for spec in args.isolation_event:
        n, k, g, r = _parse_args_list(spec, [int, int, float, int], "--isolation-event")
        rows.append(
            row(
                "isolation_event",
                n,
                k,
                _gamma_str(g),
                r,
                value=theory.isolation_event_prob(n, k, g, r),
            )
        )
    for spec in args.union_bound:
        n, k, g = _parse_args_list(spec, [int, int, float], "--union-bound")
        rows.append(
            row("union_bound", n, k, _gamma_str(g), value=theory.connectivity_union_bound(n, k, g))
        )
    if args.connectivity_bound:
        for n in (int(t) for t in args.connectivity_bound.split(",")):
            rows.append(
                row("connectivity_lower_bound", n, value=theory.connectivity_lower_bound_full(n))
            )
    for spec in args.maxring_bound:
        n, k, t = _parse_args_list(spec, [int, int, float], "--maxring-bound")
        rows.append(row("maxring_bound", n, k, _num(t), value=theory.maxring_tail_bound(n, k, t)))
    if not rows:
        raise ValueError("theory: no quantities requested (see pairdeploy theory --help)")
    return rows, None, {"command": "theory", "rows": rows}


# command -> (CSV fields, function returning its rows, CSV trailer and JSON document)
_COMMANDS = {
    "sweep": (["kind", "gamma", "K", "n", *_ESTIMATE_FIELDS], _sweep),
    "phased": (["n", "K", "schedule", *_ESTIMATE_FIELDS], _phased),
    "census": (["size", "count", "is_max_histogram"], _census),
    "theory": (["quantity", "arg1", "arg2", "arg3", "arg4", "value"], _theory),
}


def _write_csv(fp: IO[str], fields: list[str], rows: list[dict], trailer: str | None) -> None:
    writer = csv.DictWriter(fp, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if trailer is not None:
        fp.write(trailer + "\n")


def _run(args: argparse.Namespace, fp: IO[str]) -> None:
    fields, produce = _COMMANDS[args.command]
    rows, trailer, doc = produce(args)
    if args.format == "csv":
        _write_csv(fp, fields, rows, trailer)
    else:
        json.dump(doc, fp, indent=2)
        fp.write("\n")


def _run_to_file(args: argparse.Namespace) -> None:
    """Run into a temporary file beside args.out, then rename it onto args.out."""
    folder, name = os.path.split(os.path.abspath(args.out))
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    fp = open(tmp, "x", newline="")
    try:
        with fp:
            _run(args, fp)
        os.replace(tmp, args.out)
    except BaseException:
        os.remove(tmp)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _run_to_file(args)
        else:
            _run(args, sys.stdout)
    except ValueError as exc:
        print(f"pairdeploy: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pairdeploy: output failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"pairdeploy: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
