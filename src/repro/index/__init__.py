"""Index structures supplying page MBRs for the prediction matrix.

Per Table 1 of the paper:

* point / spatial data → an STR-packed R-tree
  (:func:`~repro.index.rstar.build_spatial_page_index`: one leaf per data
  page, data reordered so each leaf is contiguous on disk);
* time-series data → :class:`~repro.index.mr.MRIndex` (window MBRs per
  contiguous page);
* string data → :class:`~repro.index.mrs.MRSIndex` (frequency-vector MBRs
  per contiguous page).

All three produce the same :class:`~repro.index.node.PageIndex`: one box
array per tree level, ``levels[0]`` holding one MBR per page and the last
level the root — the hierarchical plane sweep (:mod:`repro.core.sweep`)
and BFRJ consume only that.  Each builds it the same way, from arrays:
one routine boxes every contiguous page (``page_boxes``) and one packer
stacks those boxes ``fanout`` at a time into the upper levels
(``build_contiguous_hierarchy``), both in :mod:`repro.index._grouping`.
"""

from repro.index.mr import MRIndex
from repro.index.mrs import MRSIndex
from repro.index.node import PageIndex
from repro.index.rstar import build_spatial_page_index

__all__ = [
    "PageIndex",
    "build_spatial_page_index",
    "MRIndex",
    "MRSIndex",
]
