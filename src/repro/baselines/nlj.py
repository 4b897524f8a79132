"""Block nested-loop join (NLJ) — the no-information baseline.

Reads the smaller dataset in blocks of ``B − 2`` pages; for each block the
other dataset is scanned sequentially in full, and every object pair is
compared (Section 2.1).  The I/O is therefore almost entirely sequential —
which is why NLJ, despite its enormous read volume, is hard to beat for
techniques that incur random seeks — and the CPU cost is the full cross
product.

Simulation note: the I/O and CPU are *charged* in full, but the result
pairs are materialised only from the prediction matrix's marked page pairs
— by Theorem 1 the unmarked pairs contain no results, so the output is
identical while the simulator avoids re-verifying billions of pairs that
cannot match.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter

from repro.core.executor import ExecutionOutcome
from repro.core.prediction import PredictionMatrix
from repro.costmodel import CostModel
from repro.storage.buffer import BufferPool

__all__ = ["block_nlj"]


def block_nlj(
    matrix: PredictionMatrix,
    pool: BufferPool,
    r,  # IndexedDataset
    s,  # IndexedDataset
    joiner,
    epsilon: float,
    cost_model: CostModel,
) -> ExecutionOutcome:
    """Charge a full block-NLJ execution and produce its (exact) result."""
    outcome = ExecutionOutcome()
    block = max(1, pool.capacity - 2)
    pages_r, pages_s = r.num_pages, s.num_pages
    outer_is_r = pages_r <= pages_s
    pages_outer, pages_inner = (
        (pages_r, pages_s) if outer_is_r else (pages_s, pages_r)
    )
    num_blocks = math.ceil(pages_outer / block)

    disk = pool.disk
    # The outer dataset is read exactly once, one seek per block; the inner
    # dataset is fully scanned for every block.
    disk.charge_stream(pages_outer, num_blocks)
    disk.charge_stream(num_blocks * pages_inner, num_blocks)
    outcome.pages_read = pages_outer + num_blocks * pages_inner

    # CPU: every object pair is compared.  Marked page pairs are actually
    # joined (and charge their exact filter + verification cost through
    # the shared joiner, one call per marked row); the rest — which by
    # Theorem 1 cannot contain any result, and for sequence data cannot
    # even pass the cheap frequency filter — charge one unit-weight
    # comparison each.
    self_join = r.paged is s.paged
    if self_join:
        n = r.num_objects
        total_comparisons = n * (n + 1) // 2
    else:
        total_comparisons = r.num_objects * s.num_objects
    examined = 0
    for _row, group in groupby(matrix.entries(), key=itemgetter(0)):
        entries = list(group)
        outcome.absorb(joiner.join_cluster(entries))
        examined += sum(
            r.paged.object_count(row) * s.paged.object_count(col)
            for row, col in entries
        )
    unexamined = max(0, total_comparisons - examined)
    outcome.comparisons = total_comparisons
    outcome.cpu_seconds += cost_model.cpu_cost(unexamined, 1.0)
    return outcome
