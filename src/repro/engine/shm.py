"""Shared-memory packing for compiled tables.

Pair-parallel serving (:mod:`repro.engine.shard`) keeps one named
``multiprocessing.shared_memory`` segment per router holding every
compiled array; each worker maps it read-only, so the tables exist
once in physical memory however many workers serve them.

A segment is described by a :func:`pack` manifest — a tuple of
``(key, offset, shape, dtype-str)`` records — which is small and
picklable, so workers can rebuild the exact array dict from the segment
name alone.  Offsets are 64-byte aligned.

Python < 3.13 has no ``track=False``; who tracks a segment depends on
the start method.  Under ``fork`` (the Linux default before Python
3.14) workers inherit the driver's resource tracker, so an attach's
duplicate registration is a set no-op and the driver's explicit unlink
keeps the books straight.
Under spawn-style methods every attaching worker runs its *own*
tracker, which would unlink the segment when that worker exits
(bpo-38119); :func:`attach` unregisters in that case so the creating
driver keeps sole unlink responsibility.
"""

from __future__ import annotations

import multiprocessing

from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

import numpy as np

__all__ = ["Manifest", "pack", "attach", "views"]

#: (array key, byte offset, shape, dtype string)
Manifest = Tuple[Tuple[str, int, Tuple[int, ...], str], ...]


def _aligned(offset: int) -> int:
    return (offset + 63) & ~63


def pack(
    arrays: Dict[str, np.ndarray],
) -> Tuple[shared_memory.SharedMemory, Manifest]:
    """Copy ``arrays`` into a new named segment; returns the segment
    and its manifest.

    The caller owns the segment: close + unlink when done.
    """
    records = []
    offset = 0
    datas = []
    for key, arr in arrays.items():
        data = np.ascontiguousarray(arr)
        records.append((key, offset, data.shape, data.dtype.str))
        datas.append(data)
        offset = _aligned(offset + data.nbytes)
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for (key, off, shape, dtype), data in zip(records, datas):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view[...] = data
        del view
    return shm, tuple(records)


def attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking unlink ownership."""
    shm = shared_memory.SharedMemory(name=name)
    try:
        if multiprocessing.get_start_method() != "fork":
            resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker layout varies
        pass
    return shm


def views(
    shm: shared_memory.SharedMemory, manifest: Manifest
) -> Dict[str, np.ndarray]:
    """Read-only array views over a segment, rebuilt from its manifest.

    The views reference the segment's buffer; drop them before closing
    it.
    """
    out: Dict[str, np.ndarray] = {}
    for key, offset, shape, dtype in manifest:
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        arr.flags.writeable = False
        out[key] = arr
    return out
