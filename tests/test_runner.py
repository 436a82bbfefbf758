"""The fork runner on trivial calls: each call's result comes back in call
order, any call count fits the queue, every child is reaped, and a child's
failure fails the run in the calling process.  Each run starts at most two
children and allocates nothing."""

import os
import select
import signal
import time
from functools import partial

import pytest

from pairdeploy import runner
from pairing_fixtures import assert_no_child_left


def index_and_pid(index, sleep=0.0):
    """The call's index and the process that ran it, after `sleep` s."""
    time.sleep(sleep)
    return index, os.getpid()


@pytest.mark.parametrize("width", [1, 2, 3])
def test_results_come_back_in_call_order(width):
    """Results come back in call order, whichever process ran each call;
    calls of 10 ms give every process of the run some of them."""
    results = runner.run([partial(index_and_pid, i, 0.01) for i in range(60)], width)
    assert [index for index, _ in results] == list(range(60))
    assert len({pid for _, pid in results}) == width
    assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2, 1024, 1025, 5000])
def test_any_call_count_fits_the_queue(count):
    """The queue is filled in one write of at most PIPE_BUF bytes before
    the fork, so past PIPE_BUF / 4 calls a record holds several consecutive
    calls, which one process runs; every run finishes with no child left."""
    results = runner.run([partial(index_and_pid, i) for i in range(count)], 2)
    assert [index for index, _ in results] == list(range(count))
    per = -(-count * 4 // select.PIPE_BUF)
    assert all(len({pid for _, pid in results[first : first + per]}) == 1 for first in range(0, count, per))
    assert_no_child_left()


def child_raises():
    raise ValueError("raised in a child")


def child_exits():
    os._exit(5)


def child_terminated():
    os.kill(os.getpid(), signal.SIGTERM)


def handled_sigterm(signum, frame):
    raise ValueError("SIGTERM raised as an exception")


@pytest.mark.parametrize(
    "action,error,message",
    [
        (child_raises, ValueError, "^raised in a child$"),
        (child_exits, RuntimeError, r"^a worker process ended without its results \(exit code 5\)$"),
        (child_terminated, RuntimeError, r"^a worker process ended without its results \(exit code -15\)$"),
    ],
    ids=["raise", "exit", "term"],
)
def test_a_failed_child_fails_the_run(action, error, message):
    """A child's exception is raised in the calling process, and a child
    that ends without sending its results fails the run with a one-line
    RuntimeError that gives its exit code.  The calling process handles
    SIGTERM here by raising, as the command line does, and a child still
    ends at once on SIGTERM, its default action.  Each call in the calling
    process first waits, at most 10 s, until the child has started one, so
    the child takes a call before the calling process can take all four."""
    caller = os.getpid()
    started, start = os.pipe()

    def call():
        if os.getpid() != caller:
            os.write(start, b"x")
            action()
        select.select([started], [], [], 10)
        return 0

    previous = signal.signal(signal.SIGTERM, handled_sigterm)
    try:
        with pytest.raises(error, match=message):
            runner.run([call] * 4, 2)
    finally:
        signal.signal(signal.SIGTERM, previous)
        os.close(started)
        os.close(start)
    assert_no_child_left()
