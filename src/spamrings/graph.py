"""Attributed product-rating graph.

Nodes are (product, rating) pairs whose attribute is the set of reviewers
that gave the product exactly that rating. Two nodes of distinct products
are linked when enough reviewers sit in both reviewer sets; the edge
carries the size of that intersection, its co-reviewer count. The
adjacency weights an edge either binarily or by that count.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
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

    @property
    def key(self) -> tuple[str, int]:
        return (self.product_id, self.rating)


@dataclass(frozen=True)
class PREdge:
    """Undirected edge between node positions u < v with its co-reviewer count."""

    u: int
    v: int
    n_co_reviewers: int


@dataclass
class PRGraph:
    nodes: list[PRNode]
    edges: list[PREdge]
    weighting: str = DEFAULT_WEIGHTING
    index: dict[tuple[str, int], int] = field(init=False)

    def __post_init__(self):
        if self.weighting not in WEIGHTING_MODES:
            raise ValueError(f"unknown edge weighting {self.weighting!r}")
        self.index = {node.key: i for i, node in enumerate(self.nodes)}

    def edge_weight(self, edge: PREdge) -> float:
        """1 under binary weighting, else the edge's co-reviewer count."""
        return 1.0 if self.weighting == "binary" else float(edge.n_co_reviewers)


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


def build_edges(nodes: list[PRNode], min_co_review: int = 2) -> list[PREdge]:
    """Link node pairs (distinct products) sharing >= min_co_review reviewers.

    Uses a reviewer -> nodes inverted index: each reviewer contributes one
    count to every node pair it belongs to, so a pair's count equals the
    exact reviewer-set intersection size. This avoids the all-pairs scan.
    """
    if min_co_review < 1:
        raise ValueError("min_co_review must be >= 1")
    incident: dict[str, list[int]] = defaultdict(list)
    for i, node in enumerate(nodes):
        for reviewer in node.reviewers:
            incident[reviewer].append(i)
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for reviewer in sorted(incident):
        members = sorted(incident[reviewer])
        for i, j in combinations(members, 2):
            if nodes[i].product_id == nodes[j].product_id:
                continue
            counts[(i, j)] += 1
    return [PREdge(i, j, n) for (i, j), n in sorted(counts.items()) if n >= min_co_review]


def build_graph(
    table: ReviewTable,
    min_co_review: int = 2,
    weighting: str = DEFAULT_WEIGHTING,
) -> PRGraph:
    nodes = build_nodes(table)
    edges = build_edges(nodes, min_co_review=min_co_review)
    return PRGraph(nodes=nodes, edges=edges, weighting=weighting)


def adjacency_sparse(graph: PRGraph) -> sp.csr_array:
    """Symmetric CSR adjacency with zero diagonal, weighted by ``graph.edge_weight``."""
    import scipy.sparse as sp

    n = len(graph.nodes)
    rows, cols, vals = [], [], []
    for e in graph.edges:
        w = graph.edge_weight(e)
        rows += [e.u, e.v]
        cols += [e.v, e.u]
        vals += [w, w]
    return sp.csr_array(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
    )


def node_features(graph: PRGraph) -> np.ndarray:
    """Per-node feature rows: one-hot rating, log reviewer count, log degree.

    Deterministic function of the graph alone: columns 0..4 one-hot encode
    the rating level, column 5 is log(1 + |reviewers|) and column 6 is
    log(1 + weighted degree) under the graph's weighting mode.
    """
    n = len(graph.nodes)
    feats = np.zeros((n, FEATURE_DIM), dtype=np.float64)
    degree = np.zeros(n, dtype=np.float64)
    for e in graph.edges:
        w = graph.edge_weight(e)
        degree[e.u] += w
        degree[e.v] += w
    for i, node in enumerate(graph.nodes):
        feats[i, node.rating - 1] = 1.0
        feats[i, NUM_RATING_LEVELS] = math.log1p(len(node.reviewers))
        feats[i, NUM_RATING_LEVELS + 1] = math.log1p(degree[i])
    return feats


def write_graph(graph: PRGraph, edges_path, nodes_path) -> None:
    """Dump edge list and node attributes as tab-separated text."""
    with open(edges_path, "w", encoding="utf-8") as fh:
        for e in graph.edges:
            u = node_id_str(graph.nodes[e.u])
            v = node_id_str(graph.nodes[e.v])
            fh.write(f"{u}\t{v}\t{graph.edge_weight(e):g}\n")
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node in graph.nodes:
            fh.write(f"{node.product_id}\t{node.rating}\t{len(node.reviewers)}\n")


def cluster_reviewer_support(
    graph: PRGraph, cluster_nodes: Iterable[int]
) -> dict[str, int]:
    """How many distinct cluster nodes each reviewer appears in."""
    support: dict[str, int] = defaultdict(int)
    for i in cluster_nodes:
        for reviewer in graph.nodes[i].reviewers:
            support[reviewer] += 1
    return dict(support)


def connected_components(graph: PRGraph, node_subset: Iterable[int]) -> list[set[int]]:
    """Connected components of the subgraph induced by a node subset.

    Components come back ordered by their smallest node index; isolated
    nodes form singleton components.
    """
    subset = set(node_subset)
    parent = {i: i for i in subset}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph.edges:
        if e.u in subset and e.v in subset:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    comps: dict[int, set[int]] = {}
    for i in subset:
        comps.setdefault(find(i), set()).add(i)
    return [comps[root] for root in sorted(comps)]
