"""The ordered worker pool that runs the parse and the bootstrap."""

import errno
import os
import signal
import time

import pytest

from openwar import forking
from openwar.forking import WorkerError, ordered


def _no_child_left():
    """Every process a call forked has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """The pids of the workers forked, in fork order, and the exit code
    each was reaped with."""
    pids, exits = [], {}
    fork_worker, waitpid = forking._fork_worker, os.waitpid

    def recorded_fork(work):
        pids.append(fork_worker(work))
        return pids[-1]

    def recorded_wait(pid, options):
        pid, status = waitpid(pid, options)
        exits[pid] = os.waitstatus_to_exitcode(status)
        return pid, status

    monkeypatch.setattr(forking, "_fork_worker", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_wait)
    return pids, exits


def _slow_square(k):
    """k squared, after a wait that falls as k rises in steps of three, so
    that later tasks finish before earlier ones."""
    time.sleep(0.002 * (2 - k % 3))
    return k * k, os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_in_task_order(cpus, monkeypatch, workers):
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    results = list(ordered(_slow_square, iter(range(20)), "square"))
    assert [square for square, _ in results] == [k * k for k in range(20)]
    pids, exits = workers
    by = {pid for _, pid in results}
    if cpus == 1:
        assert by == {os.getpid()} and not pids
    else:
        assert by == set(pids) and len(pids) == cpus
        assert exits == dict.fromkeys(pids, 0)
    _no_child_left()


def _timed_out(signum, frame):
    raise TimeoutError("no result within 60 s")


def test_large_tasks_and_results_do_not_deadlock(monkeypatch):
    """Tasks and results far over a pipe's buffer, with a worker blocked
    writing its result while this process sends another its task.  A
    deadlock fails the test after 60 s, not the whole run."""
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    tasks = [bytes([k]) * (1 << 20) for k in range(5)]
    handler = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        results = list(ordered(lambda task: task + task[:1], tasks, "big"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert results == [task + task[:1] for task in tasks]
    _no_child_left()


def test_one_task_forks_nothing(monkeypatch):
    def must_not_fork():
        raise AssertionError("one task runs in the calling process")

    monkeypatch.setattr(forking, "usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", must_not_fork)
    assert list(ordered(_slow_square, [3], "square")) == \
        [(9, os.getpid())]
    assert list(ordered(_slow_square, [], "square")) == []


def test_a_failing_worker_is_the_one_named(monkeypatch, workers):
    """Task 1 is the second sent, the first of worker 2; it fails.  The
    others are stopped by this process, worker 3 while it writes a result
    larger than a pipe holds, and exit 0."""
    def fails_on_task_one(k):
        if k == 1:
            raise FloatingPointError("task 1")
        return bytes(1 << 20)

    monkeypatch.setattr(forking, "usable_cpus", lambda: 3)
    with pytest.raises(WorkerError, match="^task worker 2 of 3 exited with "
                                          "status 1$"):
        list(ordered(fails_on_task_one, range(9), "task worker"))
    pids, exits = workers
    assert exits == {pids[0]: 0, pids[1]: 1, pids[2]: 0}
    _no_child_left()


def test_closing_the_generator_leaves_no_child(monkeypatch, workers):
    monkeypatch.setattr(forking, "usable_cpus", lambda: 3)
    squares = ordered(_slow_square, range(50), "square")
    assert [next(squares)[0] for _ in range(4)] == [0, 1, 4, 9]
    squares.close()
    pids, exits = workers
    assert len(pids) == 3 and exits == dict.fromkeys(pids, 0)
    _no_child_left()


def test_a_failed_fork_is_a_worker_error(monkeypatch, workers):
    """A fork refused after the first raises WorkerError naming the
    worker, once the one forked has exited."""
    fork, forks = os.fork, []

    def refused_second():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused_second)
    with pytest.raises(WorkerError, match="^square 2 could not be forked: "
                                          rf"\[Errno {errno.EAGAIN}\]"):
        list(ordered(_slow_square, range(4), "square"))
    pids, exits = workers
    assert len(pids) == 1 and exits == {pids[0]: 0}
    _no_child_left()
