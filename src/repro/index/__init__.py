"""Index structures supplying page MBRs for the prediction matrix.

Per Table 1 of the paper:

* point / spatial data → :class:`~repro.index.rstar.RStarTree` (one leaf
  node per data page, data reordered so each leaf is contiguous on disk);
* time-series data → :class:`~repro.index.mr.MRIndex` (window MBRs per
  contiguous page);
* string data → :class:`~repro.index.mrs.MRSIndex` (frequency-vector MBRs
  per contiguous page).

All three expose the same :class:`~repro.index.node.IndexNode` hierarchy
whose leaves carry page numbers — the hierarchical plane sweep
(:mod:`repro.core.sweep`) consumes only that interface.  Each builds it
the same way, from arrays: one routine boxes every contiguous page
(``page_boxes``) and one packer stacks those boxes into the hierarchy
(``build_contiguous_hierarchy``), both in :mod:`repro.index._grouping`.
The R*-tree's insertion path (``build_method="rstar"``) is the one
exception: it mirrors the tree that insertion grew.
"""

from repro.index.mr import MRIndex
from repro.index.mrs import MRSIndex
from repro.index.node import IndexNode, PageIndex
from repro.index.rstar import RStarTree, build_spatial_page_index

__all__ = [
    "IndexNode",
    "PageIndex",
    "RStarTree",
    "build_spatial_page_index",
    "MRIndex",
    "MRSIndex",
]
