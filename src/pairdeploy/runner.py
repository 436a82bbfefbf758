"""The fork runner of the Monte Carlo runs: run(calls, width) runs a list
of calls in this process and in width - 1 children forked for the run, and
returns each call's result in call order.

Before the fork, one pipe, the queue, takes the whole run in one atomic
write of at most PIPE_BUF bytes, which an empty pipe holds: a 4-byte
record, the index of its first call, per group of ceil(4 * calls /
PIPE_BUF) consecutive calls.  Each process reads the next record, 4 bytes,
and runs its calls until the queue is empty, so a process that finishes
early takes more calls rather than idle.  A child sends its (index,
result) pairs back on a pipe of its own (see _send), so which process ran
a call changes no result."""

import os
import pickle
import select
import signal
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from typing import NoReturn

__all__ = ["run"]

# the cgroup v2 CPU quota of this process, "QUOTA PERIOD" or "max PERIOD" (in
# microseconds), as the cgroup namespace of a container shows it
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _pool_cpus() -> int:
    """The CPUs a run may spread over: those this process may use, on
    Linux, where runs fork, and no more than its cgroup's CPU quota allows;
    1 elsewhere, where every run is serial."""
    if sys.platform != "linux":
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _cpu_quota() -> int | None:
    """The CPUs the cgroup v2 quota of this process allows, its quota over
    its period rounded up, from _CPU_MAX; None where the file is missing or
    malformed, or says "max", no quota."""
    try:
        with open(_CPU_MAX) as fp:
            quota, period = fp.read().split()
        if quota == "max":
            return None
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError, ZeroDivisionError):
        return None


def run(calls: Sequence[Callable[[], object]], width: int) -> list:
    """Each call's result, in call order, from this process and width - 1
    children forked for the run (see the module docstring), whose
    exceptions are raised here.  Every child is reaped before this returns
    or raises, and killed first if this raises."""
    if width == 1:
        return [call() for call in calls]
    per = -(-len(calls) * 4 // select.PIPE_BUF)  # calls per record
    pairs, pids, reads = [], [], []  # pids: the children not yet reaped
    caller = os.getpid()
    queue, fill = os.pipe()
    try:
        with open(fill, "wb", buffering=0) as fp:  # one write(2) call
            fp.write(b"".join(first.to_bytes(4, "little") for first in range(0, len(calls), per)))
        for _ in range(width - 1):
            read, write = os.pipe()
            reads.append(read)
            try:
                # from Python 3.12 a fork from a process with threads (numpy's BLAS
                # starts some) warns: default filters hide it, and where warnings
                # are errors CPython drops it rather than fail the fork.  The
                # Monte Carlo calls call no BLAS routine.
                pid = os.fork()
                if pid == 0:
                    _send(calls, queue, per, write, caller)
            finally:
                os.close(write)
            pids.append(pid)
        pairs += _take(calls, queue, per)
        for read, pid in zip(reads, pids[:]):
            payload = b"".join(iter(partial(os.read, read, 1 << 20), b""))
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status or not payload:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a worker process ended without its results (exit code {code})")
            done, result = pickle.loads(payload)
            if not done:
                raise result
            pairs += result
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for fd in (queue, *reads):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    results = dict(pairs)
    return [results[index] for index in range(len(calls))]


def _take(calls: Sequence[Callable[[], object]], queue: int, per: int) -> Iterator[tuple[int, object]]:
    """The (index, result) pairs of the calls of each record this process
    takes from the queue, `per` calls a record, until the queue is empty."""
    for record in iter(partial(os.read, queue, 4), b""):
        first = int.from_bytes(record, "little")
        for index in range(first, min(first + per, len(calls))):
            yield index, calls[index]()


def _send(calls: Sequence[Callable[[], object]], queue: int, per: int, write: int, caller: int) -> NoReturn:
    """In a child forked by process `caller`: pickle the (index, result)
    pairs of the calls it takes from the queue, or the exception one
    raised, into the pipe `write`, and end the child, exiting 0 once the
    whole result is written, without returning into the caller's frames or
    flushing the stdio it inherited.

    A caller killed by a signal reaps nothing, so the child first asks for
    SIGKILL when the caller's forking thread, which waits for it, ends, and
    exits at once if the caller ended before that.  It also restores
    SIGTERM's default action, so a SIGTERM ends it at once: the command
    line's handler, which it inherits, would raise into the caller's
    frames."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        import ctypes  # numpy has loaded it already
        try:
            ctypes.CDLL(None).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
        except (OSError, TypeError, AttributeError):
            pass
        if os.getppid() != caller:
            os._exit(1)
        try:
            result = (True, list(_take(calls, queue, per)))
        except BaseException as exc:
            result = (False, exc)
        with open(write, "wb") as fp:
            pickle.dump(result, fp)
        code = 0
    finally:
        os._exit(code)
