"""Attributed product-rating graph.

Nodes are (product, rating) pairs whose attribute is the set of reviewers
that gave the product exactly that rating. That membership is held only
as the reviewer × node incidence B, built with numpy from the review
columns: node j's reviewers are the rows of B's column j, and no per-node
set is kept. Two nodes of distinct products are linked when enough
reviewers sit in both reviewer sets; the edge carries the size of that
intersection, its co-reviewer count. One symmetric sparse matrix of those
counts, BᵀB off its diagonal, holds every edge and is the adjacency. The
table holds one review per (reviewer, product), as ``reviews.dedupe``
leaves it, so a reviewer sits in at most one node of a product and no
edge joins two ratings of one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ._lazy import lazy_import
from .reviews import ReviewColumns, row_writer

np = lazy_import("numpy")
sp = lazy_import("scipy.sparse")

NUM_RATING_LEVELS = 5
FEATURE_DIM = NUM_RATING_LEVELS + 2


class NodeKey(NamedTuple):
    product_id: str
    rating: int


@dataclass(frozen=True)
class PRNode:
    """A node with its reviewer set, as :attr:`PRGraph.nodes` rebuilds it from B."""

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
    """Node keys, the reviewer × node incidence B (row i is ``reviewers[i]``)
    and the symmetric co-reviewer count matrix BᵀB yields, the graph's one
    edge store. Node j is the product ``product_ids[k // 5]`` rated
    ``k % 5 + 1``, for k = ``node_keys[j]``. ``product_ids`` and
    ``reviewers`` are the lists of the table's columns.
    """

    product_ids: list[str]
    node_keys: np.ndarray  # ascending in build_graph
    reviewers: list[str]
    incidence: sp.csc_array  # column j holds node j's reviewer rows
    co_review: sp.csr_array  # co_review_matrix(incidence, ...)

    @property
    def keys(self) -> list[NodeKey]:
        """(product id, rating) of each node."""
        ids = self.product_ids
        return [
            NodeKey(ids[k // NUM_RATING_LEVELS], k % NUM_RATING_LEVELS + 1)
            for k in self.node_keys.tolist()
        ]

    @property
    def sizes(self) -> np.ndarray:
        """The reviewer count of each node: the lengths of B's columns."""
        return np.diff(self.incidence.indptr)

    @cached_property
    def nodes(self) -> list[PRNode]:
        """Each node with its reviewer set, read from B's columns; built on first use."""
        bounds = self.incidence.indptr.tolist()
        rows = self.incidence.indices.tolist()
        names = self.reviewers
        return [
            PRNode(product, rating, frozenset(map(names.__getitem__, rows[a:b])))
            for (product, rating), a, b in zip(self.keys, bounds, bounds[1:])
        ]

    @cached_property
    def edges(self) -> list[PREdge]:
        """The upper triangle as edges, ordered by (u, v); built on first use."""
        return [PREdge(*e) for e in zip(*_upper_triangle(self.co_review))]


def node_id_str(node: NodeKey | PRNode) -> str:
    return f"{node.product_id}#{node.rating}"


def co_review_matrix(incidence: sp.csc_array, min_co_review: int = 2) -> sp.csr_array:
    """Co-reviewer counts of node pairs sharing >= min_co_review reviewers.

    The counts are ``BᵀB`` of the nodes' incidence ``B``, with the
    diagonal and counts below the threshold dropped. Two nodes of one
    product share no reviewer in a deduped table, so they get no count.
    Every node has a reviewer, so each diagonal entry is stored and
    ``setdiag`` zeroes it in place. The result is symmetric canonical CSR:
    sorted indices, no duplicates and no explicit zeros.
    """
    if min_co_review < 1:
        raise ValueError("min_co_review must be >= 1")
    counts = incidence.T @ incidence
    counts.setdiag(0)
    counts.data[counts.data < min_co_review] = 0
    counts.eliminate_zeros()
    counts.sort_indices()
    return counts


def _upper_triangle(matrix: sp.csr_array) -> tuple[list[int], list, list]:
    """Row, column and value of each entry above the diagonal of a canonical CSR, row by row."""
    row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    above = matrix.indices > row
    return row[above].tolist(), matrix.indices[above].tolist(), matrix.data[above].tolist()


def build_graph(table: ReviewColumns, min_co_review: int = 2) -> PRGraph:
    """The graph of a deduped table: one node per (product, rating) pair that has a review.

    Nodes come out sorted by (product, rating), so the graph does not
    depend on input review order. The incidence B lists each node's
    reviewer rows in ascending order, each once, as ``review_columns``
    checks. Its entries are int32 ones: ``BᵀB`` is the graph's memory
    peak, and a count is at most the number of reviewers. The row indices
    and, when they fit, the column offsets are int32 too; scipy keeps
    int32 index arrays through ``BᵀB``, so the co-reviewer counts, which
    are the adjacency, and the matrices training holds carry them.
    """
    n_rows = len(table.reviewer_ids)
    columns = np.asarray(table.columns, dtype=np.intp)
    keys = columns * NUM_RATING_LEVELS + np.asarray(table.ratings) - 1
    node_keys, node = np.unique(keys, return_inverse=True)
    members = np.sort(node * n_rows + np.asarray(table.rows))  # by node, then by row
    del columns, keys, node  # the per-review arrays go before BᵀB
    starts = np.cumsum(np.bincount(members // n_rows + 1, minlength=len(node_keys) + 1))
    if starts[-1] <= np.iinfo(np.int32).max:
        starts = starts.astype(np.int32)
    incidence = sp.csc_array(
        (np.ones(len(members), dtype=np.int32), (members % n_rows).astype(np.int32), starts),
        shape=(n_rows, len(node_keys)),
    )
    del members
    counts = co_review_matrix(incidence, min_co_review)
    return PRGraph(table.product_ids, node_keys, table.reviewer_ids, incidence, counts)


def adjacency_sparse(graph: PRGraph) -> sp.csr_array:
    """The symmetric CSR adjacency with zero diagonal: ``graph.co_review``, the int32 counts."""
    return graph.co_review


def node_features(graph: PRGraph) -> np.ndarray:
    """Per-node float32 feature rows: one-hot rating, log reviewer count, log degree.

    Columns 0..4 one-hot encode the rating level, column 5 is
    log(1 + |reviewers|) and column 6 is log(1 + weighted degree), an
    integer row sum of ``graph.co_review``. float32 is the precision
    training runs in (see ``clustering``).
    """
    n = len(graph.node_keys)
    feats = np.zeros((n, FEATURE_DIM), dtype=np.float32)
    feats[np.arange(n), graph.node_keys % NUM_RATING_LEVELS] = 1.0
    feats[:, NUM_RATING_LEVELS] = list(map(math.log1p, graph.sizes.tolist()))
    feats[:, NUM_RATING_LEVELS + 1] = list(map(math.log1p, graph.co_review.sum(axis=1).tolist()))
    return feats


def write_graph(graph: PRGraph, edges_path, nodes_path) -> None:
    """Dump the edge list (ordered by node pair) and node attributes as tab-separated text."""
    keys = graph.keys
    ids = list(map(node_id_str, keys))
    with open(edges_path, "w", encoding="utf-8", newline="") as fh:
        row_writer(fh, "\t").writerows(
            (ids[u], ids[v], weight)
            for u, v, weight in zip(*_upper_triangle(graph.co_review))
        )
    with open(nodes_path, "w", encoding="utf-8", newline="") as fh:
        row_writer(fh, "\t").writerows(
            (*key, size) for key, size in zip(keys, graph.sizes.tolist())
        )

