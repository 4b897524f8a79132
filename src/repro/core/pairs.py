"""A join's result pairs: one read-only ``(n, 2)`` int64 array, read as a list.

:class:`ResultPairs` is what ``JoinResult.pairs`` and
``SubsequenceJoinResult.offsets`` hold.  It behaves like the list of
``(int, int)`` tuples a join used to return — length, iteration,
indexing, slices, ``in``, order-sensitive ``==`` against lists, tuples
and other results, unhashable, picklable — but stores the pairs as one
array and builds no Python object per pair until a caller reads them.
``np.asarray(pairs)`` is that array itself (read-only, no copy), so a
caller that wants an array never pays for tuples.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import chain

import numpy as np

__all__ = ["ResultPairs"]

# Rows turned into Python ints per ``tolist()`` call while iterating:
# large enough that the per-chunk overhead vanishes, small enough that a
# chunk's transient int lists stay around a megabyte.
_ITER_CHUNK = 1 << 14


class ResultPairs(Sequence):
    """An immutable sequence of ``(r, s)`` pairs over one int64 array.

    Iteration and indexing give ``(int, int)`` tuples of Python ints, in
    the array's row order; a slice is another :class:`ResultPairs` over a
    view.  Equality is order-sensitive against lists, tuples and other
    results.  Like a list it is unhashable.
    """

    __slots__ = ("_array",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, pairs) -> None:
        array = np.asarray(pairs, dtype=np.int64)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValueError(
                f"result pairs must be an (n, 2) array, got shape {array.shape}"
            )
        view = array.view()
        view.flags.writeable = False
        self._array = view

    def __len__(self) -> int:
        return self._array.shape[0]

    def __iter__(self):
        # One tolist() per chunk and column, zipped in C: no Python frame
        # runs per pair.
        array = self._array
        return chain.from_iterable(
            zip(
                array[start:start + _ITER_CHUNK, 0].tolist(),
                array[start:start + _ITER_CHUNK, 1].tolist(),
            )
            for start in range(0, array.shape[0], _ITER_CHUNK)
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultPairs(self._array[index])
        r, s = self._array[operator.index(index)].tolist()
        return r, s

    def __eq__(self, other) -> bool:
        if isinstance(other, ResultPairs):
            return np.array_equal(self._array, other._array)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy or (dtype is not None and np.dtype(dtype) != self._array.dtype):
            if copy is False:
                raise ValueError("converting result pairs to this dtype needs a copy")
            return np.array(self._array, dtype=dtype)
        return self._array

    def __reduce__(self):
        return ResultPairs, (self._array,)

    def __repr__(self) -> str:
        shown = ", ".join(map(repr, self[:4]))
        more = ", ..." if len(self) > 4 else ""
        return f"ResultPairs([{shown}{more}], n={len(self)})"
