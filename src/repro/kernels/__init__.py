"""Batched filter-and-refine distance kernels.

Every joiner routes page-pair refinement through this layer.  The design
follows the lower-bound-cascade shape of the GPU self-join literature
(Gowanlock & Karsin) and Xling: a *vectorised prefilter* computed over
whole candidate blocks at once, then a *batched exact refine* that
processes all surviving pairs of a page pair in one call with a shared
early-abandon threshold.  Each batched kernel is bit-identical to its
scalar reference (``dtw_distance``, ``edit_distance``, the Minkowski
difference-tensor evaluation) — the batching changes *when* numbers are
computed, never *which* numbers.

Modules
-------
``minkowski``
    Gram-matrix prefilter + exact gathered refine for L_p joins; chunked
    full pairwise matrices.
``dtw``
    Block Keogh envelopes, LB_Keogh over whole window blocks, and a
    batched banded DP with shared early abandon.
``edit``
    Batched banded Levenshtein DP over byte-encoded window pairs.
``wavefront``
    Anti-diagonal DTW/edit DPs — batch × diagonal vectorisation, the
    chunk kernels behind ``dtw_batch`` / ``edit_batch``.
``backends``
    :class:`KernelBackend`, the panel filters the mega-batch cascades
    call.
"""

from repro.kernels.backends import KernelBackend
from repro.kernels.dtw import batch_envelopes, dtw_batch, lb_keogh_block
from repro.kernels.edit import edit_batch, encode_strings
from repro.kernels.minkowski import minkowski_pairs, minkowski_pairwise

__all__ = [
    "batch_envelopes",
    "dtw_batch",
    "lb_keogh_block",
    "edit_batch",
    "encode_strings",
    "minkowski_pairs",
    "minkowski_pairwise",
    "KernelBackend",
]
