"""Deterministic parallel fan-out over independent work items.

A thin wrapper over :mod:`concurrent.futures` with the two properties
every caller in this library needs:

* **ordered results** — ``parallel_map(fn, items)`` returns results in
  the order of ``items``, regardless of worker scheduling, so parallel
  runs are bit-identical to serial ones;
* **serial fallback** — ``jobs <= 1`` (or fewer than two items) runs a
  plain loop in-process, so the parallel path is always optional and
  the worker function only needs to be picklable when it is actually
  fanned out.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, List, Optional, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` → all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    jobs: int = 1,
) -> List[ResultT]:
    """Apply ``fn`` to every item, preserving item order in the result.

    With ``jobs > 1`` the items are dispatched to a process pool
    (``fn`` and the items must be picklable: use module-level worker
    functions, not closures).  Worker exceptions propagate to the
    caller exactly as in the serial path.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    workers = min(jobs, len(items))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
