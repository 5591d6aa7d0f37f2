"""Attributed product-rating graph.

Nodes are (product, rating) pairs whose attribute is the set of reviewers
that gave the product exactly that rating. Two nodes of distinct products
are linked when enough reviewers sit in both reviewer sets; the edge
carries the size of that intersection, its co-reviewer count. One
symmetric sparse matrix of those counts holds every edge; the adjacency
weights an edge either binarily or by its count.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable

from ._lazy import lazy_import
from .reviews import ReviewTable

if TYPE_CHECKING:
    import scipy.sparse as sp

np = lazy_import("numpy")

WEIGHTING_MODES = ("binary", "co_review_count")
DEFAULT_WEIGHTING = "co_review_count"

NUM_RATING_LEVELS = 5
FEATURE_DIM = NUM_RATING_LEVELS + 2


@dataclass(frozen=True)
class PRNode:
    product_id: str
    rating: int
    reviewers: frozenset[str]


@dataclass(frozen=True)
class PREdge:
    """Undirected edge between node positions u < v with its co-reviewer count."""

    u: int
    v: int
    n_co_reviewers: int


@dataclass(eq=False)
class PRGraph:
    """Nodes, the reviewer × node incidence B (row i is ``reviewers[i]``)
    and the symmetric co-reviewer count matrix BᵀB yields, the graph's one
    edge store."""

    nodes: list[PRNode]
    reviewers: list[str]
    incidence: sp.csc_array  # reviewer_incidence(nodes, reviewers)
    co_review: sp.csr_array  # co_review_matrix(nodes, incidence, ...)
    weighting: str = DEFAULT_WEIGHTING

    def __post_init__(self):
        if self.weighting not in WEIGHTING_MODES:
            raise ValueError(f"unknown edge weighting {self.weighting!r}")

    @cached_property
    def edges(self) -> list[PREdge]:
        """The upper triangle as edges, ordered by (u, v); built on first use."""
        return [PREdge(*e) for e in zip(*_upper_triangle(self.co_review))]


def node_id_str(node: PRNode) -> str:
    return f"{node.product_id}#{node.rating}"


def build_nodes(table: ReviewTable) -> list[PRNode]:
    """One node per (product, rating) pair that has at least one review.

    Nodes come out sorted by (product, rating) so graph construction does
    not depend on input review order.
    """
    reviewers: dict[tuple[str, int], set[str]] = defaultdict(set)
    for r in table.reviews:
        reviewers[(r.product_id, r.rating)].add(r.reviewer_id)
    return [
        PRNode(product, rating, frozenset(members))
        for (product, rating), members in sorted(reviewers.items())
    ]


def reviewer_incidence(nodes: list[PRNode], reviewers: list[str]) -> sp.csc_array:
    """The reviewer × node 0/1 matrix B, CSC, whose row i is ``reviewers[i]``.

    ``reviewers`` lists every reviewer of the nodes once, in the row order
    the caller's other reviewer matrices use (``ReviewTable.reviewer_ids``).
    int32 entries: ``BᵀB`` and its masks are the graph's memory peak, and
    a count is at most the number of reviewers. The row indices and, when
    they fit, the column offsets are int32 too; scipy keeps int32 index
    arrays through ``BᵀB``, so the co-reviewer counts, the adjacency and
    the matrices training holds carry them.
    """
    import scipy.sparse as sp

    row = {r: i for i, r in enumerate(reviewers)}
    starts = np.cumsum([0] + [len(node.reviewers) for node in nodes])
    if starts[-1] <= np.iinfo(np.int32).max:
        starts = starts.astype(np.int32)
    rows = np.fromiter(
        map(row.__getitem__, chain.from_iterable(node.reviewers for node in nodes)),
        dtype=np.int32,
        count=starts[-1],
    )
    return sp.csc_array(
        (np.ones(len(rows), dtype=np.int32), rows, starts), shape=(len(row), len(nodes))
    )


def co_review_matrix(
    nodes: list[PRNode], incidence: sp.csc_array, min_co_review: int = 2
) -> sp.csr_array:
    """Co-reviewer counts of node pairs (distinct products) sharing >= min_co_review reviewers.

    The counts are ``BᵀB`` of the nodes' :func:`reviewer_incidence` ``B``,
    with the diagonal, pairs of one product (a table that is not deduped
    can put a reviewer in two ratings of a product) and counts below the
    threshold dropped. The result is symmetric canonical CSR: sorted
    indices, no duplicates and no explicit zeros.
    """
    if min_co_review < 1:
        raise ValueError("min_co_review must be >= 1")
    counts = incidence.T @ incidence
    product = np.unique([n.product_id for n in nodes], return_inverse=True)[1].astype(np.int32)
    same_product = product[counts.indices] == np.repeat(product, np.diff(counts.indptr))
    counts.data[same_product | (counts.data < min_co_review)] = 0
    counts.eliminate_zeros()
    counts.sort_indices()
    return counts


def _upper_triangle(matrix: sp.csr_array) -> tuple[list[int], list, list]:
    """Row, column and value of each entry above the diagonal of a canonical CSR, row by row."""
    row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    above = matrix.indices > row
    return row[above].tolist(), matrix.indices[above].tolist(), matrix.data[above].tolist()


def build_graph(
    table: ReviewTable,
    min_co_review: int = 2,
    weighting: str = DEFAULT_WEIGHTING,
) -> PRGraph:
    nodes = build_nodes(table)
    incidence = reviewer_incidence(nodes, table.reviewer_ids)
    counts = co_review_matrix(nodes, incidence, min_co_review)
    return PRGraph(nodes, table.reviewer_ids, incidence, counts, weighting)


def adjacency_sparse(graph: PRGraph) -> sp.csr_array:
    """Symmetric CSR adjacency with zero diagonal.

    An edge weighs 1 under binary weighting, else its co-reviewer count.
    The adjacency has the sparsity pattern of ``graph.co_review``.
    """
    import scipy.sparse as sp

    counts = graph.co_review
    binary = graph.weighting == "binary"
    weights = np.ones(counts.nnz) if binary else counts.data.astype(np.float64)
    return sp.csr_array((weights, counts.indices, counts.indptr), shape=counts.shape)


def node_features(graph: PRGraph, adj: sp.csr_array) -> np.ndarray:
    """Per-node float32 feature rows: one-hot rating, log reviewer count, log degree.

    ``adj`` is the graph's :func:`adjacency_sparse`. Columns 0..4 one-hot
    encode the rating level, column 5 is log(1 + |reviewers|) and column 6
    is log(1 + weighted degree) under the graph's weighting mode. float32
    is the precision training runs in (see ``clustering``).
    """
    feats = np.zeros((len(graph.nodes), FEATURE_DIM), dtype=np.float32)
    degree = adj.sum(axis=1)
    for i, node in enumerate(graph.nodes):
        feats[i, node.rating - 1] = 1.0
        feats[i, NUM_RATING_LEVELS] = math.log1p(len(node.reviewers))
        feats[i, NUM_RATING_LEVELS + 1] = math.log1p(degree[i])
    return feats


def write_graph(graph: PRGraph, edges_path, nodes_path) -> None:
    """Dump the edge list (ordered by node pair) and node attributes as tab-separated text."""
    with open(edges_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(
            (node_id_str(graph.nodes[u]), node_id_str(graph.nodes[v]), f"{weight:g}")
            for u, v, weight in zip(*_upper_triangle(adjacency_sparse(graph)))
        )
    with open(nodes_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(
            (node.product_id, node.rating, len(node.reviewers)) for node in graph.nodes
        )


def connected_components(graph: PRGraph, node_subset: Iterable[int]) -> list[set[int]]:
    """Connected components of the subgraph induced by a node subset.

    Components come back ordered by their smallest node index; isolated
    nodes form singleton components. The search visits only the edges of
    the subset's nodes, read from the rows of ``graph.co_review``.
    """
    subset = set(node_subset)
    indptr, indices = graph.co_review.indptr, graph.co_review.indices
    seen: set[int] = set()
    comps: list[set[int]] = []
    for root in sorted(subset):  # every smaller node is seen, so root is its component's minimum
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in indices[indptr[u] : indptr[u + 1]].tolist():
                if v in subset and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps
