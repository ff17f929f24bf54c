"""The package's one thread pool, for numpy calls that release the GIL.

Two threads, made on first use and kept from call to call, so importing
the package starts none. Callers hand the pool plain numpy work only:
every public function of the package runs on the calling thread. BLAS
stays at one thread per call; each worker makes its own ordinary call.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

# (pid, executor), kept from call to call: a new executor per k-means
# pass took a split pass at k = 1024, L = 2048-8192 to 0.94-1.17x of
# inline, against 0.73-0.85x with the kept pool. A forked child has none
# of its parent's pool threads, so it starts a pool of its own.
_pool = None


def workers() -> int:
    """Threads a split runs on: up to 2, one per usable core."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(2, cores or 1))


def submit(fn, *args):
    """Run ``fn(*args)`` on the pool, created on first use."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(2, thread_name_prefix="vqround-worker"))
    return _pool[1].submit(fn, *args)


def run(tasks) -> None:
    """Call every task of ``tasks`` and return once all have finished.

    A single task, or any number on one usable core, runs inline in
    order; otherwise each task goes to a pool thread. The caller waits
    for every task before raising any task's error, so none still
    writes into the caller's buffers.
    """
    if len(tasks) == 1 or workers() == 1:
        for task in tasks:
            task()
        return
    futures = [submit(task) for task in tasks]
    wait(futures)
    for f in futures:
        f.result()
