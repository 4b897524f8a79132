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
  unlinks each one, inside a ``finally`` around the worker pool — a
  worker that dies mid-shard cannot leave a segment behind, because it
  never owned one.
* **Workers only attach.**  Pool workers inherit the parent's
  ``resource_tracker`` process (both fork and spawn pass the tracker fd
  down), and the tracker's per-type cache is a *set*: a worker's attach
  re-registers the same name the parent registered at create, which
  dedupes, and the parent's single ``unlink`` retires it.  Workers must
  **not** call ``resource_tracker.unregister`` — with a shared tracker
  that would erase the parent's registration and turn the final unlink
  into tracker noise.  If every process dies without cleanup, the
  tracker itself unlinks whatever remains — the segment still cannot
  outlive the run.
"""

from __future__ import annotations

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
    """Worker-side attach: ``(array view, segment handle)`` for a spec.

    The returned handle must stay referenced as long as the array is in
    use.  Attaching registers the name with the (parent-shared) resource
    tracker; that is a set-dedup no-op, see the module docstring.
    """
    shared_memory = _shared_memory()
    if shared_memory is None:  # pragma: no cover - platform without shm
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    seg = shared_memory.SharedMemory(name=spec.name)
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
    return array, seg


class ShmAttachments:
    """Worker-side collection of attachments with one close path.

    ``attach`` caches per segment name, so a self-join's two dataset
    sides map the segment once.  :meth:`close` unmaps the segments, so
    it must run only after every numpy view into them has been dropped
    — on CPython, ``SharedMemory.close`` can succeed with live views
    and leave them pointing at unmapped memory.  ``run_shard`` honours
    this by closing in a ``finally`` after its dataset/joiner locals
    (the only view holders) have gone out of scope.  The pair, count,
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
