"""Worker processes made with `os.fork`, for work that splits into tasks
that share nothing while they run: the parser's chunks and the
bootstrap's blocks of replicate rows.

`ordered(work, tasks, name)` yields work(task) for each task, in task
order.  One task, or a process that may run on one CPU, runs work here.
Otherwise each task goes to a forked worker process, one per usable CPU,
each with one task at a time.  Tasks and results are pickled on pipes.

A worker leaves by `os._exit`, so it never returns into the caller's
stack, runs no atexit handler and flushes no inherited buffer.  The
caller waits for every worker it forked before the generator ends,
raises or is closed, and a worker that exited nonzero raises WorkerError
in the caller then.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback
import warnings
from collections import deque
from functools import partial
from itertools import chain, islice

__all__ = ["WorkerError", "ordered", "usable_cpus"]


class WorkerError(RuntimeError):
    """A worker process could not be forked, or exited with a nonzero
    status."""


def usable_cpus():
    """The CPUs this process may run on: one worker each.  1 where
    processes cannot be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def ordered(work, tasks, name):
    """work(task) for each of `tasks`, in task order.

    work runs in this process until a second task is read, and always
    where `usable_cpus()` is 1.  After that the first W tasks go to
    workers 1 ... W, forked one per usable CPU as the tasks come.  Each
    later task goes to the worker with the oldest task out once its
    result is read, and before that result is yielded, so a worker has
    one task at a time and does not wait on what the consumer does with
    a result.  A worker that exits nonzero raises WorkerError "<name> k
    of W exited with ...", k counting from 1 over the W forked, and one
    that cannot be forked WorkerError "<name> k could not be forked:
    ...".  Either replaces an Exception in this process, which a
    worker's exit causes by closing the pipe to it, but not a
    KeyboardInterrupt or GeneratorExit, which reaches the workers too or
    abandons them.  Every worker has exited when the generator ends,
    raises or is closed."""
    tasks = iter(tasks)
    cpus = usable_cpus()
    held = list(islice(tasks, 2)) if cpus > 1 else []
    if len(held) < 2:
        yield from map(work, chain(held, tasks))
        return
    pids, sends, results = [], [], []  # worker k's pid and our pipe ends
    busy = deque()  # the workers by k, in the order of their tasks
    failure = None
    try:
        for task in chain(held, tasks):
            if len(pids) < cpus:  # a new worker takes it
                _start(work, name, pids, sends, results)
                k, done = len(pids) - 1, []
            else:  # the worker with the oldest task takes it, once done
                k = busy.popleft()
                done = [pickle.load(results[k])]
            _write(sends[k], pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
            busy.append(k)
            yield from done
        while busy:
            yield pickle.load(results[busy.popleft()])
    except Exception as exc:
        failure = exc
    finally:
        # closing our pipe ends stops every worker at its next read or write
        for fd in sends:
            os.close(fd)
        for f in results:
            f.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for k, code in enumerate(codes, 1):
        if code:
            how = f"status {code}" if code > 0 else f"signal {-code}"
            raise WorkerError(f"{name} {k} of {len(pids)} exited with "
                              f"{how}") from failure
    if failure is not None:
        raise failure


def _start(work, name, pids, sends, results):
    """Fork a worker serving `work`, and add its pid and our ends of its
    task and result pipes to the lists.  The worker closes our ends of
    every worker's pipes, so that only we hold them and it sees us close
    our own."""
    fds = []
    try:
        fds.extend(os.pipe())
        fds.extend(os.pipe())
        task_r, task_w, result_r, result_w = fds
        ours = sends + [f.fileno() for f in results] + [task_w, result_r]
        pids.append(_fork_worker(partial(_serve, work, task_r, result_w,
                                         ours)))
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        raise WorkerError(f"{name} {len(pids) + 1} could not be forked: "
                          f"{exc}") from exc
    os.close(task_r)
    os.close(result_w)
    sends.append(task_w)
    results.append(open(result_r, "rb"))


def _serve(work, tasks, results, ours):
    """A worker: work(task) for each task read from the pipe `tasks`,
    written to the pipe `results`, until the caller closes either."""
    for fd in ours:
        os.close(fd)
    tasks = open(tasks, "rb")
    while True:
        try:
            task = pickle.load(tasks)
        except EOFError:
            return  # the caller sends no more
        result = pickle.dumps(work(task), pickle.HIGHEST_PROTOCOL)
        try:
            _write(results, result)
        except BrokenPipeError:
            return  # the caller reads no more, which is no failure here


def _write(fd, data):
    """Write all of `data` to the pipe `fd`, unbuffered, so that nothing
    is left to flush when the process exits."""
    data = memoryview(data)
    while data:
        data = data[os.write(fd, data):]


def _fork_worker(work):
    """Run work() in a forked child and return the child's pid.  The child
    leaves by os._exit: with status 0 when work returns, and with status 1
    after printing the traceback of anything it raised."""
    # Python 3.12+ warns on fork in a process with threads, as numpy's
    # BLAS pool is.  With the pthreads OpenBLAS that numpy's wheels ship,
    # a fork there is safe: its pthread_atfork handlers stop the pool
    # before the fork and start a new one when a process next needs it,
    # and the products a bootstrap worker runs, one small game at a time,
    # fall below its threading threshold anyway.  An OpenMP BLAS (an
    # OpenMP OpenBLAS build, MKL) gives no such guarantee once the parent
    # has run threaded products.  A parse worker runs no BLAS at all.
    # Either leaves by os._exit.
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
