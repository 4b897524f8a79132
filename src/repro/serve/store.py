"""The in-memory prediction-matrix and sketch cache.

:class:`ResidentStore` is the one cache :func:`repro.core.join.join`
accepts: ``join(..., matrix_cache=store)`` loads prediction matrices and
sketches from it under the keys of :mod:`repro.storage.persist`, and
saves fresh builds back into it.  A :class:`~repro.serve.JoinSession`
owns one for its resident datasets; batch callers may create and share
their own.

Copy discipline: the join **mutates** matrices it gets from the cache
(self-join triangle reduction, prefilter unmarking), and keeps mutating
the matrix it just saved.  The store therefore copies on *both* sides —
``save_matrix`` stores a private copy, ``load_matrix`` hands out a
private copy — so the resident artefact always stays the raw build
output.  Sketches are immutable once built (the cascade only reads
them; the append path replaces whole entries), so they are stored and
served by reference.

All entry points are lock-protected: the serving layer calls them from
many request threads at once.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.core.prediction import PredictionMatrix
from repro.sketch.signatures import PageSketches

__all__ = ["ResidentStore"]


class ResidentStore:
    """Thread-safe resident cache of prediction matrices and sketches.

    ``load_*``/``save_*`` serve the join; the direct accessors serve the
    session's incremental-append path, which patches entries in place
    (:meth:`replace_matrix`, :meth:`replace_sketches`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._matrices: Dict[str, PredictionMatrix] = {}
        self._sketches: Dict[str, PageSketches] = {}
        self.matrix_hits = 0
        self.matrix_misses = 0
        self.sketch_hits = 0
        self.sketch_misses = 0

    # -- the join's loads and saves: matrices ---------------------------------

    def save_matrix(self, matrix: PredictionMatrix, key: str) -> None:
        with self._lock:
            self._matrices[key] = matrix.copy()

    def load_matrix(self, key: str) -> Optional[PredictionMatrix]:
        with self._lock:
            resident = self._matrices.get(key)
            if resident is None:
                self.matrix_misses += 1
                return None
            self.matrix_hits += 1
            return resident.copy()

    # -- the join's loads and saves: sketches ---------------------------------

    def save_sketches(self, sketches: PageSketches, key: str) -> None:
        with self._lock:
            self._sketches[key] = sketches

    def load_sketches(self, key: str) -> Optional[PageSketches]:
        with self._lock:
            resident = self._sketches.get(key)
            if resident is None:
                self.sketch_misses += 1
                return None
            self.sketch_hits += 1
            return resident

    # -- direct access (incremental-append patching) --------------------------

    def peek_matrix(self, key: str) -> Optional[PredictionMatrix]:
        """The resident matrix itself (no copy, no hit accounting).

        For the append path only: the caller patches a copy and swaps it
        back in with :meth:`replace_matrix` — never mutate the returned
        object directly.
        """
        with self._lock:
            return self._matrices.get(key)

    def replace_matrix(
        self, old_key: str, new_key: str, matrix: PredictionMatrix
    ) -> None:
        """Atomically swap a patched matrix in under its new cache key."""
        with self._lock:
            self._matrices.pop(old_key, None)
            self._matrices[new_key] = matrix

    def drop_matrix(self, key: str) -> None:
        with self._lock:
            self._matrices.pop(key, None)

    def peek_sketches(self, key: str) -> Optional[PageSketches]:
        with self._lock:
            return self._sketches.get(key)

    def replace_sketches(
        self, old_key: str, new_key: str, sketches: PageSketches
    ) -> None:
        with self._lock:
            self._sketches.pop(old_key, None)
            self._sketches[new_key] = sketches

    def drop_sketches(self, key: str) -> None:
        with self._lock:
            self._sketches.pop(key, None)

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "matrices": len(self._matrices),
                "sketches": len(self._sketches),
                "matrix_hits": self.matrix_hits,
                "matrix_misses": self.matrix_misses,
                "sketch_hits": self.sketch_hits,
                "sketch_misses": self.sketch_misses,
            }
