"""Patches that steer the package's thread pool in tests."""

import threading

from vqround import parallel


def two_cores(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})


def counted_submits(monkeypatch):
    """Count the tasks handed to the pool."""
    calls = []
    submit = parallel.submit

    def counted(fn, *args):
        calls.append(args)
        return submit(fn, *args)

    monkeypatch.setattr(parallel, "submit", counted)
    return calls


def refuse_pool(monkeypatch):
    def refused(fn, *args):
        raise AssertionError("a task reached the pool")

    monkeypatch.setattr(parallel, "submit", refused)


def drain_pool():
    """Return once both pool threads have let go of their last tasks.

    A pool thread can hold a task for a moment after its future is done.
    Two tasks that meet at a barrier take one thread each, and a thread
    drops its last task before it takes the next.
    """
    barrier = threading.Barrier(2, timeout=30)
    for f in [parallel.submit(barrier.wait) for _ in range(2)]:
        f.result()
