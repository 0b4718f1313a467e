"""How many workers a computation may use, and a thread map that ends with its call.

`empirical` runs the ensemble's realizations on a process pool of
`worker_count(threads)` workers; `analytic` spreads its cold table builds
over `worker_count()` threads.  Both read the same cap.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["worker_count"]


def worker_count(requested=None) -> int:
    """Worker cap: explicit request, STAR_SPECTRA_THREADS, then cpu count."""
    if requested is not None:
        count = int(requested)
    else:
        env = os.environ.get("STAR_SPECTRA_THREADS", "").strip()
        try:
            count = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"STAR_SPECTRA_THREADS must be an integer, not {env!r}") from None
    if count < 1:
        raise ValueError("worker count must be at least 1")
    return count


def thread_map(fn, tasks) -> list:
    """[fn(task) for task in tasks], on up to `worker_count()` threads.

    One worker runs the tasks in the calling thread.  Otherwise the pool lives
    for this call only, so no thread outlives it: a process pool forked later
    (the ensembles fork one) never inherits a running thread.  Every result is
    read, so an exception in a task is raised here.
    """
    tasks = list(tasks)
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
