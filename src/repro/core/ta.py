"""Fagin's threshold algorithm (TA) over two cost-sorted lists.

CC's cluster growth (Section 7.2, Figure 8 step 3.c) must repeatedly find
the expansion with the lowest exact I/O-cost increase.  The two expansion
directions — vertical (rows) and horizontal (columns) — "can be viewed as
two lists sorted by increasing I/O cost"; TA walks both lists in lockstep,
evaluates the exact cost of every item it encounters, and stops as soon as
the best exact cost seen is at most the sum of the current list heads'
lower bounds — without inspecting the remaining items (Fagin, Lotem &
Naor, PODS'01).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple, TypeVar

__all__ = ["threshold_argmin"]

T = TypeVar("T")


def threshold_argmin(
    list_a: Iterator[Tuple[float, T]],
    list_b: Iterator[Tuple[float, T]],
    exact_cost: Callable[[T], float],
) -> Optional[Tuple[T, float]]:
    """Item with minimal exact cost, found by the threshold algorithm.

    Parameters
    ----------
    list_a, list_b:
        Iterators of ``(lower_bound, item)`` sorted by ascending lower
        bound.  Every candidate item must appear in at least one list, and
        ``lower_bound <= exact_cost(item)`` must hold.
    exact_cost:
        The exact aggregate cost of an item (may be expensive — TA exists
        to call it as rarely as possible).

    Returns
    -------
    ``(best_item, best_cost)`` or ``None`` when both lists are empty.
    """
    best_item: Optional[T] = None
    best_cost = float("inf")
    seen: set = set()
    head_a: Optional[Tuple[float, T]] = next(list_a, None)
    head_b: Optional[Tuple[float, T]] = next(list_b, None)

    while head_a is not None or head_b is not None:
        # Threshold = sum of the current lower-bound heads (exhausted list
        # contributes nothing more, so its bound is +inf conceptually; with
        # one list empty the other's head alone bounds the remainder).
        threshold = 0.0
        if head_a is not None:
            threshold += head_a[0]
        if head_b is not None:
            threshold += head_b[0]
        if best_item is not None and best_cost <= threshold:
            return best_item, best_cost

        # Advance the list with the smaller head (round-robin on ties).
        if head_b is None or (head_a is not None and head_a[0] <= head_b[0]):
            assert head_a is not None
            _bound, item = head_a
            head_a = next(list_a, None)
        else:
            _bound, item = head_b
            head_b = next(list_b, None)

        try:
            if item in seen:
                continue
            seen.add(item)
        except TypeError:  # unhashable item: fall back to identity
            key = id(item)
            if key in seen:
                continue
            seen.add(key)
        cost = exact_cost(item)
        if cost < best_cost:
            best_item, best_cost = item, cost

    if best_item is None:
        return None
    return best_item, best_cost
