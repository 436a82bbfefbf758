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
inclusive grammar "a..b"; lists are comma-separated.  A theory flag of
one argument takes a comma list, one query per value (--r-gamma 0.2,0.5);
a flag of more takes a comma tuple and repeats, one query per use.

The Monte Carlo commands (sweep, phased, census) take --workers, the most
processes a run may use: this one, which runs a share of the trials itself,
and a child forked for each other share.  Unset, it is one per CPU this
process may use within its cgroup CPU quota, at most 2.  Runs fork only on
Linux, and are serial elsewhere, whatever --workers says.  A run within one serial block forks
nothing.  Output does not depend on the worker count.

Exit codes: 0 success, 1 runtime/output failure, 2 usage error, 130 when
interrupted (SIGINT, Ctrl-C), 143 when terminated (SIGTERM).  Past argument
parsing, a failure prints one "pairdeploy: ..." line to stderr, never a
traceback; an interrupted or terminated run, too, removes its --out
temporary file and kills and reaps the processes it forked.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import signal
import sys
from threading import current_thread, main_thread
from typing import IO, Any, Callable, NoReturn, Sequence

from . import montecarlo, theory
from .scheme import SchemeParams

DEFAULT_SEED = 1729

_ESTIMATE_FIELDS = ["trials", "successes", "p_hat", "ci_low", "ci_high"]
_THEORY_FIELDS = ["quantity", "arg1", "arg2", "arg3", "arg4", "value"]

# what each command produces: CSV rows, an optional CSV trailer line, the JSON document
_Output = tuple[list[dict], str | None, dict]


def _prob(x: float) -> str:
    return f"{x:.6f}"


def _num(x: float) -> str:
    return f"{x:.9g}"


def _gamma_str(g: float) -> str:
    # :g keeps six significant digits; a fraction that needs more prints in full
    short = f"{g:g}"
    return short if float(short) == g else repr(g)


def parse_k_values(text: str, n: int) -> Sequence[int]:
    """Parse "7", "1..20" (inclusive), or "1,5,9" (no value twice): a
    tuple, or a range for a range.

    Every listed value and both ends of a range are checked against
    1..n-1.  A range stays a range, so ExperimentPlan refuses one whose
    widest table would not fit in memory before it lists its values.
    """
    text = text.strip()
    if ".." in text:
        lo_txt, _, hi_txt = text.partition("..")
        lo, hi = int(lo_txt), int(hi_txt)
        if lo > hi:
            raise ValueError(f"empty k range {text!r}")
        SchemeParams(n, lo)
        SchemeParams(n, hi)
        return range(lo, hi + 1)
    ks = tuple(int(tok) for tok in text.split(","))
    for k in ks:
        SchemeParams(n, k)
    if len(set(ks)) != len(ks):
        raise ValueError(f"values must not repeat, got {text!r}")
    return ks


def parse_gamma_list(text: str) -> tuple[float, ...]:
    """Parse a comma-separated list of deployment fractions."""
    return tuple(float(tok) for tok in text.split(","))


def _parse_flag(flag: str, parse: Callable[..., Any], text: str, *args: int) -> Any:
    """parse(text, *args), with a ValueError's message prefixed by the flag."""
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _finite(tok: str) -> float:
    x = float(tok)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {tok!r}")
    return x


# argument kinds of the theory queries: (parse a token, show the parsed value in a row);
# ints go into rows as numbers, reals as text
_INT = (int, int)
_GAMMA = (_finite, _gamma_str)
_REAL = (_finite, _num)

# theory flag -> (quantity, theory function, argument kinds, help text or, for a tuple
# flag, metavar).  A flag with no argument kinds is a switch.
_THEORY_QUERIES = {
    "--r-gamma": ("r_gamma", theory.isolation_threshold,
                  [_GAMMA], "isolation thresholds for these fractions"),
    "--lambda-star": ("lambda_star", theory.maxring_critical_scale,
                      [], "critical max-ring scale"),
    "--c-of-lambda": ("c_of_lambda", theory.upper_tail_root,
                      [_REAL], "deviation roots c for these scales"),
    "--h-exponent": ("h_exponent", theory.decay_exponent,
                     [_REAL, _REAL], "LAM,C"),
    "--isolation": ("isolation_prob", theory.isolation_prob_exact,
                    [_INT, _INT, _GAMMA], "N,K,GAMMA"),
    "--expected-isolated": ("expected_isolated", theory.expected_isolated,
                            [_INT, _INT, _GAMMA], "N,K,GAMMA"),
    "--isolation-event": ("isolation_event", theory.isolation_event_prob,
                          [_INT, _INT, _GAMMA, _INT], "N,K,GAMMA,R"),
    "--union-bound": ("union_bound", theory.connectivity_union_bound,
                      [_INT, _INT, _GAMMA], "N,K,GAMMA"),
    "--connectivity-bound": ("connectivity_lower_bound", theory.connectivity_lower_bound_full,
                             [_INT], "full-deployment bounds for these n"),
    "--maxring-bound": ("maxring_bound", theory.maxring_tail_bound,
                        [_INT, _INT, _REAL], "N,K,T"),
}


def _add_run_options(p: argparse.ArgumentParser, trials: int) -> None:
    """The options every Monte Carlo command ends with."""
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--workers", type=int, default=montecarlo.WORKERS_DEFAULT,
        help="processes, this one included, at most (default: one per usable CPU, "
        "at most 2; 1 off Linux, where runs are serial); the output does not depend on it",
    )
    _add_io(p)


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help='single "7", range "1..20", or list "1,5,9"')
    p.add_argument("--gamma", required=True, help='fractions, e.g. "0.2,0.4,0.6,0.8"')
    _add_run_options(p, montecarlo.SWEEP_TRIALS_DEFAULT)


def _phased_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--schedule", required=True, help='increasing fractions, e.g. "0.25,0.5,1.0"')
    _add_run_options(p, montecarlo.SWEEP_TRIALS_DEFAULT)


def _census_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_run_options(p, montecarlo.CENSUS_TRIALS_DEFAULT)


def _theory_args(p: argparse.ArgumentParser) -> None:
    for flag, (_, _, kinds, text) in _THEORY_QUERIES.items():
        if not kinds:
            p.add_argument(flag, action="store_true", help=text)
        elif len(kinds) == 1:
            p.add_argument(flag, help=text)
        else:
            p.add_argument(flag, action="append", default=[], metavar=text)
    _add_io(p)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand's arguments."""
    parser = argparse.ArgumentParser(
        prog="pairdeploy",
        description="Pairwise key predistribution under gradual deployment: "
        "Monte Carlo experiments and exact calculators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_args, _, _) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=text))
    return parser


def _estimate_fields(successes: int, trials: int) -> dict:
    low, high = montecarlo.wilson_interval(successes, trials)
    return {
        "trials": trials,
        "successes": successes,
        "p_hat": _prob(successes / trials),
        "ci_low": _prob(low),
        "ci_high": _prob(high),
    }


def _plan(args: argparse.Namespace, k_values: Sequence[int], flag: str) -> montecarlo.ExperimentPlan:
    """The deployment run args ask for over k_values, at the fractions of
    `flag`; they are parsed here, after the K values, whose errors win."""
    fractions = _parse_flag(flag, parse_gamma_list, getattr(args, flag[2:]))
    return montecarlo.ExperimentPlan(args.n, k_values, fractions, args.trials, args.seed, args.workers)


def _sweep(args: argparse.Namespace) -> _Output:
    SchemeParams(args.n, 1)  # n alone first, so n < 2 is not reported as a --k error
    plan = _plan(args, _parse_flag("--k", parse_k_values, args.k, args.n), "--gamma")
    counts = montecarlo.run_sweep(plan)  # k -> (connected, no_isolated, joint)
    rows = [
        {"kind": kind, "gamma": _gamma_str(g), "K": k, "n": plan.n,
         **_estimate_fields(int(counts[k][curve][i]), plan.trials)}
        for curve, kind in enumerate(("connected", "no_isolated"))
        for i, g in enumerate(plan.gammas)
        for k in plan.k_values
    ]
    return rows, None, {"command": "sweep", "seed": args.seed, "rows": rows}


def _phased(args: argparse.Namespace) -> _Output:
    plan = _plan(args, (args.k,), "--schedule")
    connected, _, joint = montecarlo.run_sweep(plan)[args.k]
    labelled = [(",".join(_gamma_str(g) for g in plan.gammas), joint)]
    labelled += zip(map(_gamma_str, plan.gammas), connected.tolist())
    rows = [
        {"n": args.n, "K": args.k, "schedule": label, **_estimate_fields(successes, plan.trials)}
        for label, successes in labelled
    ]
    return rows, None, {"command": "phased", "seed": args.seed, "rows": rows}


def _census(args: argparse.Namespace) -> _Output:
    counts = montecarlo.run_keyring_census(args.n, args.k, args.trials, args.seed, args.workers)
    # [size, count] of every size seen, for all rings and for each trial's largest
    histogram, max_histogram = ([[s, c] for s, c in enumerate(h.tolist()) if c] for h in counts)
    rows = [{"size": s, "count": c, "is_max_histogram": 0} for s, c in histogram]
    rows += [{"size": s, "count": c, "is_max_histogram": 1} for s, c in max_histogram]
    # exact integer sums over trials * n rings, divided once
    rings = args.trials * args.n
    mean_size = sum(s * c for s, c in histogram) / rings
    frac_over_3k = sum(c for s, c in histogram if s > 3 * args.k) / rings
    largest = histogram[-1][0]
    trailer = f"# mean_size={_prob(mean_size)} frac_over_3k={_prob(frac_over_3k)} largest={largest}"
    doc = {
        "command": "census",
        "seed": args.seed,
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "histogram": histogram,
        "max_histogram": max_histogram,
        "mean_size": mean_size,
        "frac_over_3k": frac_over_3k,
        "largest": largest,
    }
    return rows, trailer, doc


def _theory(args: argparse.Namespace) -> _Output:
    # every query is parsed before any is evaluated, so a malformed flag fails
    # at once, however costly the queries before it
    queries = []
    for flag, (quantity, evaluate, kinds, _) in _THEORY_QUERIES.items():
        given = getattr(args, flag[2:].replace("-", "_"))
        if given in (None, False, []):
            continue  # absent; an empty list value is parsed below, and fails
        # a tuple flag asks one query per use, a list flag one per value, a switch one
        specs = given if len(kinds) > 1 else given.split(",") if kinds else [""]
        for spec in specs:
            toks = spec.split(",") if kinds else []
            if len(toks) != len(kinds):
                raise ValueError(
                    f"{flag} expects {len(kinds)} comma-separated values, got {spec!r}"
                )
            values = [_parse_flag(flag, parse, tok) for (parse, _), tok in zip(kinds, toks)]
            shown = [show(x) for (_, show), x in zip(kinds, values)]
            queries.append((evaluate, values, [quantity, *shown, *[""] * (4 - len(shown))]))
    if not queries:
        raise ValueError("theory: no quantities requested (see pairdeploy theory --help)")
    rows = [
        # looked up on `theory` as it runs, not taken from the table, so a wrapper
        # installed there (perfbench's tracer, a test's monkeypatch) sees the call
        dict(zip(_THEORY_FIELDS, [*cells, _num(getattr(theory, evaluate.__name__)(*values))]))
        for evaluate, values, cells in queries
    ]
    return rows, None, {"command": "theory", "rows": rows}


# command -> (its line in the top-level help, the function adding its
# arguments, its CSV fields, the function returning its rows, CSV trailer
# and JSON document)
_COMMANDS = {
    "sweep": ("connectivity / no-isolated curves", _sweep_args,
              ["kind", "gamma", "K", "n", *_ESTIMATE_FIELDS], _sweep),
    "phased": ("joint connectivity through a schedule", _phased_args,
               ["n", "K", "schedule", *_ESTIMATE_FIELDS], _phased),
    "census": ("key-ring size census", _census_args, ["size", "count", "is_max_histogram"], _census),
    "theory": ("closed-form calculators", _theory_args, _THEORY_FIELDS, _theory),
}


def _write_csv(fp: IO[str], fields: list[str], rows: list[dict], trailer: str | None) -> None:
    writer = csv.DictWriter(fp, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if trailer is not None:
        fp.write(trailer + "\n")


# (mallopt parameter, value) the Monte Carlo commands set: glibc's
# M_MMAP_THRESHOLD (-3) to 32 MiB, then its M_TRIM_THRESHOLD (-1) to 64 MiB
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory for reuse, where it has mallopt.

    The graph kernel allocates and frees megabytes column by column.  Under
    glibc's adaptive defaults, which start at 128 KiB, such arrays are mapped
    afresh, or trimmed off the heap top when freed, so the columns keep
    faulting in zero-filled pages.  Fixed thresholds keep them on the heap:
    the mmap threshold stops them being mapped, and the trim threshold stops
    the heap top being returned.
    Both are set, because setting either stops glibc adjusting the other.
    Where the C library has no mallopt (macOS, musl) or cannot be loaded so
    (Windows, where CDLL(None) raises TypeError), this does nothing.  Only
    the Monte Carlo commands call it, so importing pairdeploy leaves the
    allocator alone; setting the values again is harmless.
    """
    # imported here, so that importing the CLI loads no ctypes of its own
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT_SETTINGS:
        mallopt(param, value)


def _run(args: argparse.Namespace, fp: IO[str]) -> None:
    _, _, fields, produce = _COMMANDS[args.command]
    if args.command != "theory":  # the Monte Carlo commands
        _keep_freed_memory()
    rows, trailer, doc = produce(args)
    if args.format == "csv":
        _write_csv(fp, fields, rows, trailer)
    else:
        json.dump(doc, fp, indent=2)
        fp.write("\n")


def _run_to_file(args: argparse.Namespace) -> None:
    """Run into a temporary file beside args.out, then rename it onto args.out.
    An error on the temporary file is reported against args.out."""
    if not args.out:
        raise ValueError("--out: empty file name")
    folder, name = os.path.split(os.path.abspath(args.out))
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        fp = open(tmp, "x", newline="")
        try:
            with fp:
                _run(args, fp)
            os.replace(tmp, args.out)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, args.out) from None


class _Terminated(BaseException):
    """SIGTERM, raised where the calling process stands, so a terminated
    run unwinds as a failed one does: a BaseException, as
    KeyboardInterrupt is, so no `except Exception` takes it."""


def _terminate(signum: int, frame: object) -> NoReturn:
    raise _Terminated


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM raises _Terminated for this call alone, where a handler can be set
    # (the main thread); forked children restore its default action (see runner._send)
    previous = signal.signal(signal.SIGTERM, _terminate) if current_thread() is main_thread() else None
    try:
        if args.out is None:
            _run(args, sys.stdout)
        else:
            _run_to_file(args)
    except KeyboardInterrupt:
        print("pairdeploy: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("pairdeploy: terminated", file=sys.stderr)
        return 143
    except ValueError as exc:
        print(f"pairdeploy: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pairdeploy: output failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"pairdeploy: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0
