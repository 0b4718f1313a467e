"""The worker cap, and the per-call pool map of the table builds and the ensembles.

`analytic` spreads its cold table builds over `worker_count()` threads;
`empirical` runs the ensemble's realizations on `worker_count(threads)`
processes.  Both go through `pool_map`, so both read the same cap and open
their pools the same way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from ._guards import require_int

__all__ = ["worker_count"]


def worker_count(requested=None) -> int:
    """Worker cap: explicit request, STAR_SPECTRA_THREADS, then cpu count."""
    if requested is not None:
        require_int("worker count", requested)
        count = requested
    else:
        env = os.environ.get("STAR_SPECTRA_THREADS", "").strip()
        try:
            count = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"STAR_SPECTRA_THREADS must be an integer, not {env!r}") from None
    if count < 1:
        raise ValueError("worker count must be at least 1")
    return count


def pool_map(fn, tasks, requested=None, executor=ThreadPoolExecutor) -> list:
    """[fn(task) for task in tasks], on up to `worker_count(requested)` workers.

    One worker runs the tasks inline, in the calling thread.  Otherwise an
    `executor` pool lives for this call only, so no worker outlives it: a
    process pool forked later (the ensembles fork one) never inherits a
    running thread.  Results come back in task order, and every result is
    read, so an exception in a task is raised here.
    """
    tasks = list(tasks)
    workers = min(worker_count(requested), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with executor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
