"""Worker processes made with `os.fork`, for work that splits into parts
that share nothing while they run: the bootstrap's replicate rows and the
parser's chunks.

A worker runs one function in a forked child and leaves by `os._exit`, so
it never returns into the caller's stack, runs no atexit handler and
flushes no inherited buffer.  The caller waits for every worker it forked
before it goes on, and a worker that exited nonzero raises WorkerError in
the caller then.
"""

from __future__ import annotations

import os
import sys
import traceback
import warnings
from contextlib import contextmanager

__all__ = ["WorkerError", "usable_cpus", "fork_worker", "reaped"]


class WorkerError(RuntimeError):
    """A worker process exited with a nonzero status."""


def usable_cpus():
    """The CPUs this process may run on: one worker each.  1 where
    processes cannot be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def fork_worker(work):
    """Run work() in a forked child and return the child's pid.  The child
    leaves by os._exit: with status 0 when work returns, and with status 1
    after printing the traceback of anything it raised."""
    # Python 3.12+ warns on fork in a process with threads, as numpy's
    # BLAS pool is.  A worker calls no BLAS: it runs numpy gathers, ufuncs
    # and sorts only, then leaves by os._exit.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process (\(pid=\d+\) )?is multi-threaded,"
            r" use of fork\(\) may lead to deadlocks in the child",
            DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        work()
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(status)


@contextmanager
def reaped(name, total):
    """A list for the pids of forked workers.  Leaving the block waits for
    every one of them.  If one exited nonzero, WorkerError "<name> k of
    <total> exited with ..." names the first, k counting from 1.  It
    replaces an Exception of the block, which a worker's exit causes by
    closing the pipes to it, but not a KeyboardInterrupt or GeneratorExit,
    which reaches the workers too or abandons them."""
    pids = []
    failure = None
    try:
        yield pids
    except Exception as exc:
        failure = exc
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for k, code in enumerate(codes, 1):
        if code:
            how = f"status {code}" if code > 0 else f"signal {-code}"
            raise WorkerError(f"{name} {k} of {total} exited with "
                              f"{how}") from failure
    if failure is not None:
        raise failure
