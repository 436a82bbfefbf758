"""One workload process: import the CLI, run `pairdeploy.cli.main` once, report.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py SPAWN_NS setup
    python3 perfbench/child.py SPAWN_NS run   -- <pairdeploy arguments>
    python3 perfbench/child.py SPAWN_NS trace SPANS_PATH -- <pairdeploy arguments>

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers interpreter start, numpy and pairdeploy imports.
The CLI's own output goes to stdout untouched; the last line of stderr is a
JSON record of the measurements.  Only the standard library is imported
before `pairdeploy.cli`, so the import time measured is the program's.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pairdeploy import cli  # noqa: E402

ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
ready = time.perf_counter()


def main() -> int:
    spawn_ns, mode = int(sys.argv[1]), sys.argv[2]
    record = {"setup_s": (ready_ns - spawn_ns) / 1e9}
    if mode != "setup":
        cli_args = sys.argv[sys.argv.index("--") + 1 :]
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import spans

            tracer = spans.Tracer()
            tracer.install()
            entry = tracer.wrap("cli", "cli.main", cli.main)
        else:
            entry = cli.main
        record["exit"] = entry(cli_args)
        sys.stdout.flush()
        record["run_s"] = time.perf_counter() - ready
        if mode == "trace":
            record["layers"] = tracer.write(sys.argv[3], ready, record["run_s"])
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    sys.stderr.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
