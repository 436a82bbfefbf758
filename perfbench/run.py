"""pairdeploy benchmark: CLI workloads, timed end to end and by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run it from the root of a source checkout.  A round is the workload's fixed
list of `pairdeploy` commands, each one `pairdeploy.cli.main` call in a fresh
single process (perfbench/child.py), never with `--workers`.  An operation is
what a command answers: the whole command, or one query of a `theory`
command.  A run repeats whole rounds until `--seconds` have passed, then
checks every output against computations made apart from the program
(perfbench/checks.py).  With `--trace 1`, every command runs once untraced
and once traced, and the per-layer metrics come from spans around each
layer's public functions (perfbench/spans.py).  The last stdout line is the JSON result; the full
record, with the spans of the last traced round, goes to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5  # setup-only processes per run, beside one per operation
CHILD_TIMEOUT_S = 170
# workload processes start as a user's would: bytecode cached, stdout buffered
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}

# The theory queries share one command.  `--union-bound 1000000,30,0.5` is left
# out: its single 5-10 s pure-Python call left two rounds per run, and ten-run
# spreads of 0.27-0.33 on a noisy host.
THEORY_QUERIES = [
    ("--union-bound", "100000,30,0.5"),
    ("--isolation", "1000000,40,0.3"),
    ("--isolation", "1000000,60,0.9"),
    ("--expected-isolated", "1000000,40,0.3"),
    ("--expected-isolated", "1000000,60,0.9"),
    ("--isolation-event", "1000000,60,0.9,2"),
]

# Misrounded by theory._log_binom_ratio, which sums log(x-i) - log(y-i) and
# loses ~1.3e-9 relative precision here: counted as failed operations.
KNOWN_FAULTS = {"--isolation 1000000,60,0.9", "--expected-isolated 1000000,60,0.9"}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one round.  Theory inputs do not depend on
    the seed: the closed forms have no randomness to vary."""
    s = ["--seed", str(seed)]
    if workload == "sweep":
        return [["sweep", "--n", "1000", "--k", "1..25", "--gamma", "0.2,0.4,0.6,0.8", "--trials", "200"] + s]
    if workload == "phased":
        return [["phased", "--n", "2000", "--k", "37", "--schedule", "0.25,0.5,1.0", "--trials", "200"] + s]
    # The theory command alone swung 0.65-0.99 s between runs on a noisy host,
    # over the bound.  Beside the census, which runs no graph code either, its
    # swings are a small share of the round.
    return [
        ["census", "--n", "1000", "--k", "24", "--trials", "1000"] + s,
        ["theory"] + [arg for query in THEORY_QUERIES for arg in query],
    ]


WORKLOADS = ("sweep", "phased", "census_theory")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "montecarlo.self_s": "s",
    "montecarlo.tables_per_needed": "ratio",
    "sampling.busy_s": "s",
    "sampling.tables": "count",
    "sampling.draws": "count",
    "sampling.out_mb": "MB",
    "graphs.connectivity_busy_s": "s",
    "graphs.connectivity_calls": "count",
    "graphs.connected_views": "count",
    "graphs.isolation_busy_s": "s",
    "graphs.isolation_calls": "count",
    "theory.busy_s": "s",
    "theory.calls": "count",
    "theory.union_bound_s": "s",
    "theory.union_bound_terms": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


def spawn(mode: str, cli_args: list[str] = (), spans_path: str = "") -> dict:
    """Run child.py once; return its record, stdout and exit status."""
    argv = [sys.executable, os.path.join(HERE, "child.py")]
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    argv += [str(start), mode] + ([spans_path] if mode == "trace" else [])
    argv += ["--", *cli_args] if mode != "setup" else []
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = err.decode(errors="replace").strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    return {
        "record": record,
        "stdout": out.decode(errors="replace"),
        "status": proc.returncode,
        "stderr": "\n".join(lines[-5:]),
    }


def git_sha() -> str | None:
    """HEAD of the checkout's own repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return the contract result and the full record."""
    import checks  # scipy and mpmath: imported after the program is found
    import numpy

    cmds = commands(workload, seed)
    spawn("setup")  # compile bytecode once, as any first use would
    setup = [spawn("setup")["record"].get("setup_s") for _ in range(SETUP_SAMPLES)]
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rnd = []
        for i, cmd in enumerate(cmds):
            rnd.append(("run", i, spawn("run", cmd)))
            if trace:
                path = os.path.join(OUT, f"spans-{workload}-cmd{i}.json")
                rnd.append(("trace", i, spawn("trace", cmd, path)))
        rounds.append(rnd)

    verdicts: dict[tuple[int, str], dict[str, list[str]]] = {}  # (command, output) -> problems
    attempted = 0
    failures = []
    for rnd in rounds:
        for mode, i, res in rnd:
            rec = res["record"]
            exited = res["status"] == 0 and rec.get("exit") == 0
            if exited:
                key = (i, res["stdout"])
                if key not in verdicts:
                    verdicts[key] = checks.check(cmds[i], res["stdout"])
                problems = verdicts[key]
            else:
                crash = f"exit {res['status']}/{rec.get('exit')}: {res['stderr']}"
                problems = {op: [crash] for op in checks.operations(cmds[i])}
            if len({out for j, out in verdicts if j == i}) > 1:
                problems = {op: p + ["output differs between rounds"] for op, p in problems.items()}
            attempted += len(problems)
            failures += [
                {"op": op, "mode": mode, "known": exited and op in KNOWN_FAULTS, "problems": p[:5]}
                for op, p in problems.items()
                if p
            ]

    def per_round(mode: str, field: str, combine=sum) -> list[float]:
        return [combine(r["record"].get(field, 0.0) for m, _, r in rnd if m == mode) for rnd in rounds]

    run_s = statistics.median(per_round("run", "run_s"))
    setup += [r["record"].get("setup_s") for rnd in rounds for _, _, r in rnd]
    if trace:
        layers = []
        for rnd in rounds:
            traced = [r["record"].get("layers", {}) for m, _, r in rnd if m == "trace"]
            layers.append({name: sum(t.get(name, 0) for t in traced) for name in PER_LAYER})
        out_bytes = [sum(len(r["stdout"].encode()) for m, _, r in rnd if m == "trace") for rnd in rounds]
        values = {name: statistics.median(lay[name] for lay in layers) for name in PER_LAYER}
        wall = statistics.median(per_round("trace", "run_s"))
        values.update(
            {
                "cli.output_bytes": statistics.median(out_bytes),
                "trace.wall_s": wall,
                "trace.overhead_pct": 100.0 * (wall / run_s - 1.0),
            }
        )
        units = PER_LAYER
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(s for s in setup if s is not None),
            "peak_rss_mb": statistics.median(per_round("run", "peak_rss_mb", max)),
        }
        units = END_TO_END
    result = {
        "correct": all(f["known"] for f in failures) and all(s is not None for s in setup),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    full = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "commands": cmds,
        "rounds": len(rounds),
        "failures": failures,
        "setup_s_samples": setup,
        "round_run_s": per_round("run", "run_s"),
        "result": result,
    }
    return result, full


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pairdeploy", "cli.py")):
        print(f"perfbench: no pairdeploy sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src")]
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, full = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        path = os.path.join(OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fp:
            json.dump(full, fp, indent=1)
        meta = {k: full[k] for k in ("workload", "seed", "nproc", "python", "numpy", "git_sha", "rounds")}
        print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
        for name, m in result["metrics"].items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
        print(f"# attempted={result['attempted']} failed={result['failed']}")
        for f in full["failures"][:4]:
            print(f"# failed {f['op']} ({f['mode']}): {f['problems'][0]}")
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
