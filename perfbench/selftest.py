"""Show that each output check catches the error it targets.

    python3 perfbench/selftest.py

Runs small versions of the workloads through `pairdeploy.cli.main` in this
process, confirms the checks pass the real output, then plants one error per
check and confirms it is reported: a success count off by one (with p_hat
and the interval made consistent, so only the independent recount can see
it), a theory value changed in its 9th digit, and a census count moved
between sizes.  It also confirms that the two known misrounded theory
queries are reported.  Exits 1 if any planted error goes unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

import checks  # noqa: E402
from pairdeploy import cli  # noqa: E402


def run_cli(args: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(args) != 0:
            raise SystemExit(f"pairdeploy {' '.join(args)} failed")
    return buf.getvalue()


def bump_success(text: str, pick) -> str:
    """Add one success to the first row `pick` accepts, keeping p_hat and the
    interval consistent with the new count."""
    lines = text.splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        row = dict(zip(header[-5:], line.rsplit(",", 5)[1:]))
        if pick(row):
            s, t = int(row["successes"]) + 1, int(row["trials"])
            low, high = checks.wilson(s, t)
            head = line.rsplit(",", 5)[0]
            lines[i] = f"{head},{t},{s},{s / t:.6f},{low:.6f},{high:.6f}"
            return "\n".join(lines) + "\n"
    raise SystemExit("no row to mutate")


def move_census_count(text: str) -> str:
    """Move one ring from the most common size to the next size up."""
    lines = text.splitlines()
    rows = [(i, ln.split(",")) for i, ln in enumerate(lines) if ln[0].isdigit() and ln.endswith(",0")]
    i, (size, count, _) = max(rows, key=lambda r: int(r[1][1]))
    j = next((j for j, r in rows if int(r[0]) == int(size) + 1), None)
    lines[i] = f"{size},{int(count) - 1},0"
    if j is None:
        raise SystemExit("no neighbouring size to move a count to")
    s2, c2, _ = lines[j].split(",")
    lines[j] = f"{s2},{int(c2) + 1},0"
    return "\n".join(lines) + "\n"


def change_last_digit(text: str, quantity: str) -> str:
    """Add one to the last printed digit of the first `quantity` row."""
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith(quantity + ","):
            head, value = ln.rsplit(",", 1)
            mant, _, exp = value.partition("e")
            digit = (int(mant[-1]) + 1) % 10
            lines[i] = f"{head},{mant[:-1]}{digit}" + (f"e{exp}" if exp else "")
            return "\n".join(lines) + "\n"
    raise SystemExit(f"no {quantity} row")


def main() -> int:
    cases = []
    sweep = ["sweep", "--n", "300", "--k", "1..6", "--gamma", "0.5,1.0", "--trials", "40", "--seed", "7"]
    out = run_cli(sweep)
    cases.append(("sweep clean", sweep, out, False))
    cases.append(
        (
            "sweep success count off by one",
            sweep,
            bump_success(out, lambda r: 0 < int(r["successes"]) < int(r["trials"])),
            True,
        )
    )
    phased = ["phased", "--n", "400", "--k", "3", "--schedule", "0.5,1.0", "--trials", "40", "--seed", "7"]
    out = run_cli(phased)
    cases.append(("phased clean", phased, out, False))
    cases.append(
        (
            "phased success count off by one",
            phased,
            bump_success(out, lambda r: int(r["successes"]) < int(r["trials"])),
            True,
        )
    )
    census = ["census", "--n", "200", "--k", "4", "--trials", "300", "--seed", "7"]
    out = run_cli(census)
    cases.append(("census clean", census, out, False))
    cases.append(("census count moved between sizes", census, move_census_count(out), True))
    theory = ["theory", "--union-bound", "100000,30,0.5", "--isolation", "1000000,40,0.3"]
    out = run_cli(theory)
    cases.append(("theory clean", theory, out, False))
    cases.append(("theory value changed in its 9th digit", theory, change_last_digit(out, "isolation_prob"), True))
    cases.append(
        ("theory union bound changed in its last printed digit", theory, change_last_digit(out, "union_bound"), True)
    )
    for flag in ("--isolation", "--expected-isolated"):
        known = ["theory", flag, "1000000,60,0.9"]
        cases.append((f"known fault {flag} 1000000,60,0.9", known, run_cli(known), True))

    missed = 0
    for name, args, text, should_fail in cases:
        problems = [f"{op}: {p[0]}" for op, p in checks.check(args, text).items() if p]
        ok = bool(problems) == should_fail
        missed += not ok
        shown = problems[0][-110:] if problems else "passes"
        print(f"{'ok ' if ok else 'BAD'} {name}: {shown}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
