"""Shared-memory arrays for process-sharded execution.

The sharded executor (`repro.core.executor.execute_clusters_sharded`)
ships each dataset's columnar backing arrays to worker processes through
``multiprocessing.shared_memory`` instead of pickling them: the parent
copies every array into a named segment once, workers map the segment
and wrap it in a zero-copy ``np.ndarray`` view.

Lifecycle discipline — the part that keeps crashed workers from leaking
``/dev/shm`` segments:

* The **parent owns every segment.**  :class:`ShmArena` creates them and
  its :meth:`~ShmArena.close` (or context-manager exit) both closes and
  unlinks each one once the join's shards have finished or been
  cancelled — a worker that dies mid-shard cannot leave a segment
  behind, because it never owned one.
* **Workers only attach, and never register.**  :func:`attach_array`
  maps a segment with ``shm_open`` + ``mmap`` instead of
  ``SharedMemory(name=...)``, which would register the name with a
  resource tracker.  Pool workers live across joins
  (:func:`repro.core.sharding.shard_pool`) and close the tracker
  descriptor they inherit, so a registration from a worker would start a
  tracker of its own that unlinks the parent's segments when the worker
  exits.  Only the parent's tracker knows the segments: the parent's
  ``unlink`` retires each name, and if the parent dies without cleanup
  its tracker unlinks whatever remains — a segment still cannot outlive
  the run.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["SharedArraySpec", "ShmArena", "ShmAttachments", "attach_array", "shm_available"]


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle of one shared array: segment name plus dtype/shape."""

    name: str
    shape: Tuple[int, ...]
    dtype: str  # numpy dtype string, e.g. "<f8"


def _shared_memory():
    """The ``multiprocessing.shared_memory`` module, or ``None`` if absent."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without shm
        return None
    return shared_memory


def shm_available() -> bool:
    """Whether named shared memory actually works on this platform.

    Probes with a real (tiny) segment — import success alone does not
    guarantee ``/dev/shm`` (or the platform equivalent) is usable.
    """
    shared_memory = _shared_memory()
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=16)
    except OSError:  # pragma: no cover - exotic platform
        return False
    probe.close()
    probe.unlink()
    return True


class ShmArena:
    """Parent-side owner of a run's shared-memory segments.

    Use as a context manager around the worker pool; exit closes *and
    unlinks* every segment regardless of worker fate.  ``share`` is
    idempotent per array object: sharing the same array twice returns
    the same spec (self-joins and shared feature tables pay one copy).
    """

    def __init__(self) -> None:
        self._segments: List[object] = []
        # id -> (array, spec): holding the array pins its id, so a freed
        # array's recycled id can never alias another array's segment.
        self._by_array: Dict[int, Tuple[np.ndarray, SharedArraySpec]] = {}

    @property
    def segment_names(self) -> List[str]:
        """Names of every live segment (test hook for leak assertions)."""
        return [seg.name for seg in self._segments]

    def share(self, array: np.ndarray) -> SharedArraySpec:
        """Copy an array into a fresh shared segment; return its spec."""
        shared_memory = _shared_memory()
        if shared_memory is None:  # pragma: no cover - platform without shm
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        cached = self._by_array.get(id(array))
        if cached is not None and cached[0] is array:
            return cached[1]
        arr = np.ascontiguousarray(array)
        seg = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        self._segments.append(seg)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        view[...] = arr
        del view
        spec = SharedArraySpec(seg.name, arr.shape, arr.dtype.str)
        self._by_array[id(array)] = (array, spec)
        return spec

    def close(self) -> None:
        """Close and unlink every segment; safe to call more than once."""
        segments, self._segments = self._segments, []
        self._by_array.clear()
        for seg in segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - live views in parent
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def attach_array(spec: SharedArraySpec):
    """Worker-side attach: ``(array view, mapping handle)`` for a spec.

    The returned handle must stay referenced as long as the array is in
    use; its ``close()`` unmaps.  Nothing is registered with a resource
    tracker (see the module docstring).
    """
    try:
        import _posixshmem
    except ImportError:  # pragma: no cover - Windows: no resource tracker
        shared_memory = _shared_memory()
        if shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        seg = shared_memory.SharedMemory(name=spec.name)
        return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf), seg
    fd = _posixshmem.shm_open("/" + spec.name, os.O_RDWR, mode=0o600)
    try:
        mapping = mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=mapping)
    return array, mapping


class ShmAttachments:
    """Worker-side collection of attachments with one close path.

    ``attach`` caches per segment name, so a self-join's two dataset
    sides map the segment once.  :meth:`close` unmaps the segments, so
    it must run only after every numpy view into them has been dropped
    — a mapping with live views refuses to close (``BufferError``) and
    stays mapped until the worker exits, which for a warm pool worker
    is many joins later.  ``run_shard`` honours this by closing in a
    ``finally`` after its dataset/joiner locals (the only view holders)
    have gone out of scope.  The pair, count,
    comparison and CPU arrays it then pickles are results the cascade
    allocated, each owning its memory — never views into a segment.
    """

    def __init__(self) -> None:
        self._handles: List[object] = []
        self._arrays: Dict[str, np.ndarray] = {}

    def attach(self, spec: SharedArraySpec) -> np.ndarray:
        cached = self._arrays.get(spec.name)
        if cached is not None and cached.shape == tuple(spec.shape):
            return cached
        array, seg = attach_array(spec)
        self._handles.append(seg)
        self._arrays[spec.name] = array
        return array

    def close(self) -> None:
        self._arrays.clear()
        handles, self._handles = self._handles, []
        for seg in handles:
            try:
                seg.close()
            except BufferError:  # views still alive; unmapped at exit
                pass
