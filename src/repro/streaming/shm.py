"""Shared-memory array transport for the process-backed shard executor.

The process executor (:mod:`repro.streaming.procpool`) must hand every
worker the read-only per-refresh state — the snapshot CSR triplet and
the :class:`~repro.similarity.base.ProfileIndex` arrays — without
serializing megabytes through a pipe on every refresh.  This module
packs named numpy arrays into a single
:class:`multiprocessing.shared_memory.SharedMemory` block and rebuilds
them as **zero-copy views** on the other side:

* :func:`pack_arrays` / :func:`unpack_arrays` — the wire format: one
  block, a picklable *manifest* of ``name -> (offset, dtype, shape)``
  entries describing where each array lives inside it.
* :class:`ShmArena` — the parent-side owner: one block, repacked before
  every refresh, reallocated at twice the payload whenever the payload
  outgrows it or fills less than a quarter of it (so its capacity stays
  within 4x of what the last refresh used, after mass deletions too),
  and **unlinked deterministically** on :meth:`ShmArena.close` (a
  ``weakref.finalize`` guard also unlinks on garbage collection, so an
  abandoned index cannot leak ``/dev/shm`` segments).
* :func:`attach_block` — the worker-side attach; the parent stays the
  single owner of the unlink (workers only ever ``close()``), with the
  shared ``resource_tracker`` as the crash backstop.

Alignment: every array is packed at an offset rounded up to 16 bytes,
so reconstructed views are safely aligned for any numpy dtype.
"""

from __future__ import annotations

import os
import secrets
import weakref
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmArena", "attach_block", "pack_arrays", "unpack_arrays"]

#: Offset granularity inside a block; generous for every numpy dtype.
_ALIGN = 16


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def packed_size(arrays: dict[str, np.ndarray]) -> int:
    """Bytes needed to pack *arrays* (alignment padding included)."""
    total = 0
    for array in arrays.values():
        total = _aligned(total) + array.nbytes
    return max(total, 1)  # zero-byte shared memory blocks are invalid


def pack_arrays(
    block: shared_memory.SharedMemory, arrays: dict[str, np.ndarray]
) -> dict[str, tuple[int, str, tuple[int, ...]]]:
    """Copy *arrays* into *block*; returns the manifest to unpack them.

    The manifest is plain picklable data — ``name -> (offset, dtype
    string, shape)`` — so it travels over a pipe next to the block name.
    """
    manifest: dict[str, tuple[int, str, tuple[int, ...]]] = {}
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=block.buf, offset=offset
        )
        view[...] = array
        manifest[name] = (offset, array.dtype.str, tuple(array.shape))
        offset += array.nbytes
    return manifest


def unpack_arrays(
    block: shared_memory.SharedMemory,
    manifest: dict[str, tuple[int, str, tuple[int, ...]]],
    writeable: bool = False,
) -> dict[str, np.ndarray]:
    """Rebuild the packed arrays as views over *block* (zero-copy)."""
    arrays: dict[str, np.ndarray] = {}
    for name, (offset, dtype, shape) in manifest.items():
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=block.buf, offset=offset
        )
        view.flags.writeable = writeable
        arrays[name] = view
    return arrays


def attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without adopting its lifetime.

    Worker processes spawned by :mod:`multiprocessing` inherit the
    parent's ``resource_tracker``, so the re-registration performed by
    ``SharedMemory(name=...)`` is an idempotent set-add on the entry the
    parent already holds — the parent's :class:`ShmArena` stays the
    single owner of the unlink (and the shared tracker still reaps the
    segment if the whole process tree is killed).  Workers must only
    ``close()`` their attachments, never ``unlink()``.
    """
    return shared_memory.SharedMemory(name=name)


def _release(block: shared_memory.SharedMemory) -> None:
    """Close and unlink *block*, tolerating an already-gone segment."""
    try:
        block.close()
    except OSError:  # pragma: no cover - buffer already released
        pass
    try:
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - unlinked elsewhere
        pass


class ShmArena:
    """One owned shared-memory block, repacked with fresh arrays at will.

    The parent repacks before every refresh fan-out (the snapshot and
    profile arrays change between refreshes).  The block is reused while
    the payload fills between a quarter of it and all of it, and
    otherwise reallocated at twice the payload — under a new name, which
    tells workers to reattach.  A steadily growing or shrinking dataset
    therefore reallocates only once per doubling or halving, and the
    block never holds more than four times the last payload.
    """

    def __init__(self, tag: str = "repro"):
        self._tag = tag
        self._block: shared_memory.SharedMemory | None = None
        self._generation = 0
        self._finalizer = None
        #: Bytes of the most recently published payload (0 before one).
        self._last_payload = 0

    @property
    def name(self) -> str | None:
        """Name of the current block (None before the first publish)."""
        return self._block.name if self._block is not None else None

    def stats(self) -> dict[str, int]:
        """``capacity_bytes`` (the block size) and ``payload_bytes``
        (what the last publish used); 0 before the first publish."""
        return {
            "capacity_bytes": 0 if self._block is None else self._block.size,
            "payload_bytes": self._last_payload,
        }

    def publish(
        self, arrays: dict[str, np.ndarray]
    ) -> tuple[str, dict[str, tuple[int, str, tuple[int, ...]]]]:
        """Pack *arrays*; returns ``(block_name, manifest)`` for workers."""
        needed = packed_size(arrays)
        old = self._block
        if old is None or not needed <= old.size <= 4 * needed:
            self._generation += 1
            name = (
                f"{self._tag}-{os.getpid()}-{self._generation}-"
                f"{secrets.token_hex(4)}"
            )
            self._block = shared_memory.SharedMemory(
                name=name, create=True, size=2 * needed
            )
            if self._finalizer is not None:
                self._finalizer.detach()
            self._finalizer = weakref.finalize(self, _release, self._block)
            if old is not None:
                _release(old)
        manifest = pack_arrays(self._block, arrays)
        self._last_payload = needed
        return self._block.name, manifest

    def close(self) -> None:
        """Unlink the block now (idempotent; also runs on GC)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._block is not None:
            _release(self._block)
            self._block = None
