"""Cluster scheduling for cache reuse (Section 8).

Consecutive clusters that share pages reuse them in the buffer, so the
processing order matters.  The *sharing graph* (Definition 1) has clusters
as vertices and the number of shared pages as edge weights; a schedule is
a Hamiltonian path whose total edge weight equals the page reads saved
(Lemmas 3–4).  Maximising that weight is TSP, so the paper uses the greedy
edge heuristic: repeatedly take the heaviest edge that neither closes a
cycle nor raises a vertex degree above two, then read the resulting path
fragments end to end.

Edge weights are computed with one matrix product instead of O(k²) Python
set intersections: each cluster becomes a 0/1 row of a page-incidence
matrix ``C`` over the union of touched pages, and ``C @ C.T`` holds every
pairwise shared-page count at once.  The counts are exact — the entries
of ``C`` are 0.0/1.0 and the dot products are small integers, far below
the 2**53 float64 integer limit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.clusters import Cluster
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "sharing_graph",
    "greedy_cluster_order",
    "schedule_savings",
    "cluster_page_codes",
]

Edge = Tuple[int, int]


def sharing_graph(
    clusters: Sequence[Cluster],
    r_dataset_id: Hashable,
    s_dataset_id: Hashable,
) -> Dict[Edge, int]:
    """Positive-weight edges of the sharing graph.

    Keys are index pairs ``(i, j)`` with ``i < j`` into ``clusters``;
    values are shared-page counts.  Zero-weight edges are omitted (they
    never help a schedule).
    """
    ii, jj, ww = _sharing_edges(clusters, r_dataset_id == s_dataset_id)
    return {
        (i, j): w for i, j, w in zip(ii.tolist(), jj.tolist(), ww.tolist())
    }


def greedy_cluster_order(
    clusters: Sequence[Cluster],
    r_dataset_id: Hashable,
    s_dataset_id: Hashable,
    recorder: Recorder = NULL_RECORDER,
) -> List[Cluster]:
    """Order clusters along a greedy maximum-weight path of the sharing graph.

    Deterministic: ties are broken by ascending vertex indices, and path
    fragments are concatenated in order of their smallest cluster index.
    """
    if not clusters:
        return []
    ii, jj, ww = _sharing_edges(clusters, r_dataset_id == s_dataset_id)
    # Heaviest weight first, then ascending (i, j): the edges come out of
    # _sharing_edges i-major already, so a stable sort on the negated
    # weight alone reproduces sorting dict items by (-weight, (i, j)).
    rank = np.argsort(-ww, kind="stable")
    chosen, considered = _greedy_path_edges(len(clusters), _lazy_pairs(ii, jj, rank))
    order = _walk_fragments(len(clusters), chosen)
    recorder.count("schedule.clusters", len(clusters))
    recorder.count("schedule.sharing_edges", int(ww.size))
    recorder.count("schedule.edges_considered", considered)
    recorder.count("schedule.edges_selected", len(chosen))
    return [clusters[k] for k in order]


def schedule_savings(
    ordered: Sequence[Cluster],
    r_dataset_id: Hashable,
    s_dataset_id: Hashable,
) -> int:
    """Pages saved by a schedule = sum of consecutive shared-page counts.

    This is Lemma 4's quantity; the executor's measured buffer hits match
    it when the buffer is large enough to retain each cluster fully.
    """
    return sum(
        ordered[k].shared_pages(ordered[k + 1], r_dataset_id, s_dataset_id)
        for k in range(len(ordered) - 1)
    )


def cluster_page_codes(cluster: Cluster, self_join: bool) -> np.ndarray:
    """The cluster's pages as integer codes in a single shared space.

    For a self join row and column pages live in one physical space, so a
    page marked both ways is deduplicated; otherwise rows map to even and
    columns to odd codes, which never collide.  This is the page universe
    the sharing graph counts overlaps in; the shard planner reuses it as
    the affinity/duplication signal.
    """
    rows, cols = cluster.page_arrays()
    if self_join:
        return np.union1d(rows, cols)
    return np.concatenate((rows * 2, cols * 2 + 1))


# -- internals -----------------------------------------------------------------


def _sharing_edges(
    clusters: Sequence[Cluster],
    self_join: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive upper-triangle sharing-graph edges as ``(ii, jj, ww)`` arrays.

    Edges come out i-major (ascending ``i``, then ``j``), matching a
    nested loop over cluster pairs.
    """
    num = len(clusters)
    if num < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    codes = [cluster_page_codes(cluster, self_join) for cluster in clusters]
    universe = np.unique(np.concatenate(codes))
    # float32 keeps the counts exact (shared-page counts are far below
    # 2**24) at half the matmul cost of float64.
    incidence = np.zeros((num, universe.size), dtype=np.float32)
    for k, cluster_codes in enumerate(codes):
        incidence[k, universe.searchsorted(cluster_codes)] = 1.0
    shared = incidence @ incidence.T
    ii, jj = np.nonzero(np.triu(shared, 1))
    ww = shared[ii, jj].astype(np.int64)
    return ii.astype(np.int64), jj.astype(np.int64), ww


def _lazy_pairs(
    ii: np.ndarray, jj: np.ndarray, rank: np.ndarray, block: int = 8192
) -> Iterable[Edge]:
    """Edge tuples in rank order, materialised a block at a time.

    The greedy selector usually stops after ``num_vertices - 1``
    acceptances, so converting every ranked edge to Python ints up front
    would dominate the runtime on dense sharing graphs.
    """
    for start in range(0, rank.size, block):
        sel = rank[start : start + block]
        yield from zip(ii[sel].tolist(), jj[sel].tolist())


def _greedy_path_edges(
    num_vertices: int, ordered_edges: Iterable[Edge]
) -> Tuple[List[Edge], int]:
    """Edge selection under degree-<=2 and acyclicity.

    ``ordered_edges`` must already be sorted heaviest first with ties by
    ascending ``(i, j)``.  Returns ``(chosen, considered)`` where
    ``considered`` counts the edges examined before the selection closed.
    """
    parent = list(range(num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = [0] * num_vertices
    chosen: List[Edge] = []
    considered = 0
    for i, j in ordered_edges:
        considered += 1
        if degree[i] >= 2 or degree[j] >= 2:
            continue
        root_i, root_j = find(i), find(j)
        if root_i == root_j:
            continue
        parent[root_i] = root_j
        degree[i] += 1
        degree[j] += 1
        chosen.append((i, j))
        if len(chosen) == num_vertices - 1:
            # A spanning forest with degrees <= 2 and n-1 edges is one
            # Hamiltonian path; every remaining edge would close a cycle
            # or exceed a degree, so it would be rejected anyway.
            break
    return chosen, considered


def _walk_fragments(num_vertices: int, chosen: List[Edge]) -> List[int]:
    """Concatenate the path fragments the chosen edges induce."""
    neighbours: List[List[int]] = [[] for _ in range(num_vertices)]
    for i, j in chosen:
        neighbours[i].append(j)
        neighbours[j].append(i)

    visited = [False] * num_vertices
    order: List[int] = []
    # Start each fragment at its smallest endpoint (degree <= 1) for
    # determinism; isolated vertices are their own fragments.
    for start in range(num_vertices):
        if visited[start] or len(neighbours[start]) > 1:
            continue
        current, previous = start, -1
        while True:
            visited[current] = True
            order.append(current)
            next_hops = [n for n in neighbours[current] if n != previous]
            if not next_hops:
                break
            previous, current = current, next_hops[0]
    # Degree-2 vertices left unvisited would mean a cycle — impossible by
    # construction, but guard anyway.
    for vertex in range(num_vertices):
        if not visited[vertex]:
            order.append(vertex)
    return order
