"""Pair-parallel serving: worker processes over one shared table segment.

A compiled route depends only on its own pair and the read-only tables
it visits, so packets need no coordination.  :class:`ShardedRouter`
therefore splits the *pairs*, not the nodes:

* the compiled arrays are packed once into one read-only
  ``multiprocessing.shared_memory`` segment (:mod:`repro.engine.shm`);
* one ``ProcessPoolExecutor`` of ``shards`` workers attaches that
  segment in its initializer and builds a
  :class:`~repro.engine.batch.BatchRouter` over the mapped views — one
  physical copy of the tables for the whole service, no table pickling;
* ``route_arrays`` splits a validated batch into ``shards`` contiguous
  slices, each worker routes its slice to completion, and the driver
  concatenates the results in injection order.

The output is exactly ``BatchRouter.route_arrays``'s.  ``sweeps`` is the
maximum over slices, which equals the single-process count: a sweep
advances every live packet by one transition, so a batch takes as many
sweeps as its longest packet.  ``shards == 1``, and any batch with fewer
pairs than workers, is routed in-process over ``self.tables``.

Each router owns its pool and segment; there is no module-global table
state in the driver, so live routers never alias each other's tables.
Use as a context manager or call :meth:`ShardedRouter.close`; a
``weakref`` finalizer shuts the pool down and unlinks the segment if a
router is dropped without closing.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import weakref
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine import shm as _shm
from repro.engine.batch import BatchRouter, _validate_pairs
from repro.engine.compiler import CompiledTables

__all__ = ["ShardedRouter"]

# Worker side: installed by the pool initializer, never in the driver.
_WORKER: Dict[str, object] = {}


def _init_worker(
    name: str, manifest: _shm.Manifest, template: CompiledTables
) -> None:
    """Attach the table segment and build a router over its views."""
    segment = _shm.attach(name)
    tables = dataclasses.replace(
        template, arrays=_shm.views(segment, manifest)
    )
    _WORKER["segment"] = segment
    _WORKER["router"] = BatchRouter(tables)


def _worker_ready() -> None:
    """No-op probe: starts the workers (and so attaches the segment) at
    construction rather than inside the first call."""


def _route_slice(src: np.ndarray, tgt: np.ndarray) -> Dict[str, object]:
    return _WORKER["router"].route_arrays(src, tgt)  # type: ignore[union-attr]


def _teardown(pool, segment) -> None:
    """Shut the worker pool down and release the table segment."""
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    if segment is not None:
        segment.close()
        segment.unlink()


def _concat(parts: List[Dict[str, object]]) -> Dict[str, object]:
    """Join per-slice outputs in slice (= injection) order."""
    out: Dict[str, object] = {}
    for key, first in parts[0].items():
        if key == "sweeps":
            out[key] = max(int(part[key]) for part in parts)
        elif first is None:
            out[key] = None
        else:
            out[key] = np.concatenate([part[key] for part in parts])
    return out


class ShardedRouter:
    """Serve batches from ``shards`` workers sharing one table segment."""

    def __init__(self, tables: CompiledTables, shards: int = 2) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.tables = tables
        self.shards = shards
        self._local = BatchRouter(tables)
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._segment = None
        if shards > 1:
            self._segment, manifest = _shm.pack(tables.arrays)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=shards,
                initializer=_init_worker,
                initargs=(
                    self._segment.name,
                    manifest,
                    dataclasses.replace(tables, arrays={}),
                ),
            )
        self._finalizer = weakref.finalize(
            self, _teardown, self._pool, self._segment
        )
        if self._pool is not None:
            probes = [
                self._pool.submit(_worker_ready) for _ in range(shards)
            ]
            for probe in probes:
                probe.result()

    def partition_bytes(self) -> Dict[str, object]:
        """Table bytes each worker maps: all of them, from the one
        shared segment (a single physical copy service-wide)."""
        return {"per_worker": [self.tables.nbytes()] * self.shards}

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty for ``shards == 1``)."""
        if self._pool is None:
            return []
        return [proc.pid for proc in self._pool._processes.values()]

    def route_arrays(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> Dict[str, object]:
        """Route pairs; the output contract of
        ``BatchRouter.route_arrays`` (injection order), without paths."""
        src, tgt = _validate_pairs(self.tables.n, sources, targets)
        if self._pool is None or src.size < self.shards:
            return self._local.route_arrays(src, tgt)
        futures = [
            self._pool.submit(_route_slice, s, t)
            for s, t in zip(
                np.array_split(src, self.shards),
                np.array_split(tgt, self.shards),
            )
        ]
        concurrent.futures.wait(futures)
        return _concat([future.result() for future in futures])

    def close(self) -> None:
        self._finalizer()
        self._pool = None
        self._segment = None

    def __enter__(self) -> "ShardedRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
