"""Patches that steer the package's thread pool in tests."""

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
