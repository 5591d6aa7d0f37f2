"""Dense reference implementations the tests compare production code against.

Exact modularity of a hard partition, plus a brute-force oracle.

Conventions: the sum runs over ordered node pairs including i == j, which
makes the pairwise form agree exactly with the trace form
(1/2m) Tr(Cᵀ B C) where B = A - d dᵀ / 2m. Weighted graphs are handled by
reading d as weighted degree and 2m as total weight.

``clustering_loss`` is the training objective written with the dense B;
training itself computes it sparsely.

``modularity_coo`` and ``normalized_adjacency_float64`` are the sparse
``modularity.modularity`` and ``clustering.normalized_adjacency`` as they
were before both read the graph's int32 co-reviewer counts in place: the
one sums over a COO copy of the adjacency, the other over a float64 copy.
``train_reference`` propagates with the latter.

``connected_components_edge_scan`` is a union-find over every edge of the
graph. It splits the clusters in ``extract_candidate_groups_reference``,
the oracle of the breadth-first search that
``indicators.extract_candidate_groups`` runs over the rows of the graph's
co-reviewer counts.

``build_edges_pair_count`` is the reviewer-by-reviewer pair count that
``graph.co_review_matrix`` replaced. ``co_review_matrix_masked`` is
``co_review_matrix`` as it was while it also masked pairs of one product,
which only a table that is not deduped can link.

``review_cells`` is the numpy pass over ``table.reviews`` that
``graph.build_graph`` and ``indicators.ScoringIndex`` each ran, with its
own one-review-per-(reviewer, product) check, before both read the
table's ``reviews.ReviewColumns``.

``build_nodes`` and ``reviewer_incidence`` are the per-node reviewer
frozensets, and the incidence B built from them, that ``graph.build_graph``
replaced with numpy passes over the review columns. ``graph_from_nodes``
builds a graph straight from such nodes.

``train_reference`` is the training epoch that ``clustering.train``
replaced: SeLU and its derivative by ``np.where``, one Adam update per
weight block, Â X recomputed every epoch, and a final forward pass over
the full graph. Its forward and backward passes keep the per-layer loops
over any number of layers; they are the oracle of the straight-line
two-layer ``clustering._forward`` and ``_backward``.

``dedupe_reference`` is the per-row ``get``-then-set loop that
``reviews.dedupe`` replaced.

``write_reviews_reference`` is the ``csv.writer`` over every row that
``reviews.write_reviews`` replaced with joined blocks of text. It writes
each row alone with a "\\r\\n" terminator, so that a field holding a
carriage return is quoted like one holding a line feed, and ends the row
in "\\n".

``heavy_tailed_table`` is a deduped table whose reviewer activity is
Zipf(2.2), capped, and whose product choice is Zipf(1.0): a few
hyperactive reviewers link most node pairs, which uniform ``synth`` data
never shows. The graph tests and microbenchmarks share it.

``reviews_by`` and ``product_stats`` group a table's reviews by reviewer
or product and average each product's ratings, from ``table.reviews``
alone.

``SetGroup`` and the functions after it are the group extraction and
scoring that ``indicators.ScoringIndex`` replaced: each member's product
set a frozenset taken from ``reviews_by(table, "reviewer_id")``, reviewer support
counted per cluster piece, one sparse incidence built per group, and
per-member loops for rating deviation, burstness and precision.
``assign_clusters_loop`` is the per-node loop of the clusters that
``clustering.memberships`` marks (``cluster_mask_loop`` gives them as
``train_reference``'s mask), and ``write_assignment_loop`` the one that
``clustering.write_assignment`` replaced.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from spamrings.clustering import (
    DROPOUT_RATE,
    LEARNING_RATE,
    SELU_ALPHA,
    SELU_SCALE,
    GCNParams,
    TrainConfig,
    TrainResult,
    _blocked_gram,
    _float_array,
    _loss_and_assignment_grad,
    _row_softmax,
    _seeded_init,
    _softmax_backward,
    _views,
)
from spamrings.graph import NUM_RATING_LEVELS, PRGraph, PRNode, co_review_matrix
from spamrings.indicators import (
    BURST_THRESHOLD_DAYS,
    MAX_RATING_SPAN,
    PAIR_BLOCK_ELEMENTS,
    IndicatorVector,
)
from spamrings.reviews import DEFAULT_LABEL_TOKENS, LABEL_FAKE, LABEL_UNKNOWN, Review, ReviewTable

BRUTE_FORCE_MAX_NODES = 12


@dataclass(frozen=True)
class DegreeVector:
    d: np.ndarray
    total_weight: float  # = 2m

    @property
    def is_edgeless(self) -> bool:
        return self.total_weight <= 0.0


def _check_adjacency(adj: np.ndarray) -> np.ndarray:
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.allclose(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if (adj < 0).any():
        raise ValueError("adjacency must be nonnegative")
    return adj


def degree_vector(adj: np.ndarray) -> DegreeVector:
    """Row sums and total weight 2m; an all-zero matrix is flagged edgeless."""
    adj = _check_adjacency(adj)
    d = adj.sum(axis=1)
    return DegreeVector(d=d, total_weight=float(d.sum()))


def _as_labels(assignment, n: int) -> np.ndarray:
    labels = np.asarray(assignment)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} cluster labels, got shape {labels.shape}")
    return labels.astype(np.int64)


def modularity(adj: np.ndarray, assignment) -> float:
    """Modularity Q of a hard cluster assignment.

    Q = (1/2m) sum_ij (A_ij - d_i d_j / 2m) over same-cluster ordered
    pairs. Raises ValueError on an edgeless graph, where Q is undefined.
    """
    adj = _check_adjacency(adj)
    deg = degree_vector(adj)
    if deg.is_edgeless:
        raise ValueError("modularity undefined for edgeless graph (2m = 0)")
    labels = _as_labels(assignment, adj.shape[0])
    two_m = deg.total_weight
    q = 0.0
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        within = adj[np.ix_(members, members)].sum()
        dsum = deg.d[members].sum()
        q += within - dsum * dsum / two_m
    return float(q / two_m)


def modularity_coo(adj, labels) -> float:
    """modularity.modularity summed over a COO copy of adj, one entry at a time."""
    coo = sp.coo_array(adj)
    labels = np.asarray(labels)
    if coo.shape[0] != coo.shape[1] or labels.shape != (coo.shape[0],):
        raise ValueError(
            f"need a square adjacency and one label per node, got {coo.shape} and {labels.shape}"
        )
    deg = np.asarray(coo.sum(axis=1)).ravel()
    two_m = float(deg.sum())
    if two_m <= 0:
        raise ValueError("modularity undefined for edgeless graph (2m = 0)")
    within = float(coo.data[labels[coo.row] == labels[coo.col]].sum())
    by_cluster = np.bincount(labels, weights=deg)
    return (within - float((by_cluster * by_cluster).sum()) / two_m) / two_m


def normalized_adjacency_float64(adj) -> sp.csr_array:
    """clustering.normalized_adjacency on a float64 copy of adj."""
    a = sp.csr_array(adj, dtype=np.float64)
    deg = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    data = a.data * np.repeat(inv_sqrt, np.diff(a.indptr))
    data *= inv_sqrt[a.indices]
    return sp.csr_array((data, a.indices, a.indptr), shape=a.shape)


def modularity_matrix(adj: np.ndarray) -> np.ndarray:
    """Dense B = A - d dᵀ / 2m. Every row (and the grand total) sums to zero."""
    adj = _check_adjacency(adj)
    deg = degree_vector(adj)
    if deg.is_edgeless:
        raise ValueError("modularity matrix undefined for edgeless graph (2m = 0)")
    return adj - np.outer(deg.d, deg.d) / deg.total_weight


def one_hot(assignment, n_clusters: int) -> np.ndarray:
    labels = np.asarray(assignment, dtype=np.int64)
    out = np.zeros((labels.shape[0], n_clusters), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _partitions_up_to(n: int, max_clusters: int) -> Iterator[np.ndarray]:
    """All set partitions of n items into at most max_clusters blocks.

    Restricted-growth encoding: item 0 is always block 0 and a new block
    label is one past the current maximum, so relabelings appear once.
    """
    labels = np.zeros(n, dtype=np.int64)

    def grow(i: int, used: int) -> Iterator[np.ndarray]:
        if i == n:
            yield labels.copy()
            return
        for c in range(min(used + 1, max_clusters)):
            labels[i] = c
            yield from grow(i + 1, max(used, c + 1))

    yield from grow(1, 1) if n > 0 else iter([labels])


def brute_force_best_partition(adj: np.ndarray, max_clusters: int) -> tuple[np.ndarray, float]:
    """Exhaustive maximum-modularity partition for small graphs.

    Enumerates every assignment into at most max_clusters unlabeled
    clusters; intended as the test oracle, hence the hard node cap.
    An edgeless graph has a single trivial answer with Q fixed at 0.
    """
    adj = _check_adjacency(adj)
    n = adj.shape[0]
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes, got {n}")
    if max_clusters < 1:
        raise ValueError("max_clusters must be >= 1")
    if degree_vector(adj).is_edgeless:
        return np.zeros(n, dtype=np.int64), 0.0
    best_labels = None
    best_q = -np.inf
    for labels in _partitions_up_to(n, max_clusters):
        q = modularity(adj, labels)
        if q > best_q:
            best_q = q
            best_labels = labels
    return best_labels, float(best_q)


def clustering_loss(assignment, mod_matrix, total_weight, collapse_weight: float = 0.5) -> float:
    """Negative modularity of a soft assignment plus weighted collapse term.

    total_weight is 2m. For a hard one-hot assignment the first term is
    exactly -Q of that partition.
    """
    if total_weight <= 0:
        raise ValueError("loss undefined for edgeless graph (2m = 0)")
    c = np.asarray(assignment, dtype=np.float64)
    b = np.asarray(mod_matrix, dtype=np.float64)
    n, k = c.shape
    mod_term = -np.trace(c.T @ b @ c) / total_weight
    collapse = (np.sqrt(k) / n) * np.linalg.norm(c.sum(axis=0)) - 1.0
    return float(mod_term + collapse_weight * collapse)


def connected_components_edge_scan(graph, node_subset) -> list[set[int]]:
    """Components of the subgraph induced by a node subset, by union-find
    over all of the graph's edges; ordered by smallest node index."""
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


def review_cells(
    table: ReviewTable, row: Mapping[str, int]
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The sorted product ids, then each review's reviewer row, product column and rating.

    ``row`` maps each reviewer id to its row, the position in the sorted
    reviewer ids; column j is the j-th product id. The arrays follow
    review order. A ValueError names the first pair, by product then
    reviewer, that the table holds twice.
    """
    reviews = table.reviews
    n, n_rows = len(reviews), len(row)
    product_ids = sorted(set(map(itemgetter(1), reviews)))
    column = {p: j for j, p in enumerate(product_ids)}
    rows = np.fromiter(map(row.__getitem__, map(itemgetter(0), reviews)), np.intp, n)
    columns = np.fromiter(map(column.__getitem__, map(itemgetter(1), reviews)), np.intp, n)
    cells = np.sort(columns * n_rows + rows)
    twice = np.flatnonzero(cells[1:] == cells[:-1])
    if len(twice):
        j, i = divmod(int(cells[twice[0]]), n_rows)
        reviewer_ids = sorted(row, key=row.__getitem__)
        raise ValueError(
            f"reviewer {reviewer_ids[i]!r} reviewed product {product_ids[j]!r} "
            "more than once; dedupe the table first"
        )
    return product_ids, rows, columns, np.fromiter(map(itemgetter(2), reviews), np.int8, n)


def build_nodes(table: ReviewTable) -> list[PRNode]:
    """One node per (product, rating) pair that has at least one review,
    sorted by (product, rating), with the set of its reviewers."""
    reviewers: dict[tuple[str, int], set[str]] = defaultdict(set)
    for r in table.reviews:
        reviewers[(r.product_id, r.rating)].add(r.reviewer_id)
    return [
        PRNode(product, rating, frozenset(members))
        for (product, rating), members in sorted(reviewers.items())
    ]


def reviewer_incidence(nodes: list[PRNode], reviewers: list[str]) -> sp.csc_array:
    """The reviewer × node 0/1 matrix B, int32 CSC, whose row i is ``reviewers[i]``."""
    row = {r: i for i, r in enumerate(reviewers)}
    starts = np.cumsum([0] + [len(node.reviewers) for node in nodes]).astype(np.int32)
    rows = np.fromiter(
        (row[r] for node in nodes for r in node.reviewers), dtype=np.int32, count=starts[-1]
    )
    return sp.csc_array(
        (np.ones(len(rows), dtype=np.int32), rows, starts), shape=(len(row), len(nodes))
    )


def node_keys(nodes: list[PRNode], product_ids: list[str]) -> np.ndarray:
    """Each node's ``PRGraph.node_keys`` entry, its product's position in product_ids."""
    column = {p: j for j, p in enumerate(product_ids)}
    return np.array(
        [column[n.product_id] * NUM_RATING_LEVELS + n.rating - 1 for n in nodes], dtype=np.intp
    )


def graph_from_nodes(nodes: list[PRNode], min_co_review: int = 2) -> PRGraph:
    """A graph straight from nodes, in their order, its reviewer rows sorted as in build_graph."""
    reviewers = sorted({r for node in nodes for r in node.reviewers})
    product_ids = sorted({node.product_id for node in nodes})
    keys = node_keys(nodes, product_ids)
    incidence = reviewer_incidence(nodes, reviewers)
    counts = co_review_matrix(incidence, min_co_review)
    return PRGraph(product_ids, keys, reviewers, incidence, counts)


def co_review_matrix_masked(
    node_keys: np.ndarray, incidence: sp.csc_array, min_co_review: int = 2
) -> sp.csr_array:
    """``BᵀB`` without its diagonal, pairs of one product and counts below the threshold.

    A node's product is its key // NUM_RATING_LEVELS.
    """
    if min_co_review < 1:
        raise ValueError("min_co_review must be >= 1")
    counts = incidence.T @ incidence
    product = (np.asarray(node_keys) // NUM_RATING_LEVELS).astype(np.int32)
    same_product = product[counts.indices] == np.repeat(product, np.diff(counts.indptr))
    counts.data[same_product | (counts.data < min_co_review)] = 0
    counts.eliminate_zeros()
    counts.sort_indices()
    return counts


def heavy_tailed_table(n_reviewers, n_products, cap, seed=0) -> ReviewTable:
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, n_products + 1)
    popularity /= popularity.sum()
    day = datetime.date(2014, 1, 1)
    reviews = []
    for i in range(n_reviewers):
        k = min(int(rng.zipf(2.2)), cap)
        for p in rng.choice(n_products, size=k, replace=False, p=popularity):
            reviews.append(Review(f"u{i}", f"p{p}", int(rng.integers(1, 6)), day))
    return ReviewTable(reviews)


def build_edges_pair_count(nodes, min_co_review: int = 2) -> list[tuple[int, int, int]]:
    """(u, v, co-reviewer count) of node pairs u < v of distinct products
    sharing >= min_co_review reviewers, ordered by (u, v).

    Each reviewer adds one count to every pair of the nodes it sits in,
    so a pair's count is the exact reviewer-set intersection size.
    """
    if min_co_review < 1:
        raise ValueError("min_co_review must be >= 1")
    incident: dict[str, list[int]] = defaultdict(list)
    for i, node in enumerate(nodes):
        for reviewer in node.reviewers:
            incident[reviewer].append(i)
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for reviewer in sorted(incident):
        for i, j in combinations(sorted(incident[reviewer]), 2):
            if nodes[i].product_id != nodes[j].product_id:
                counts[(i, j)] += 1
    return [(i, j, n) for (i, j), n in sorted(counts.items()) if n >= min_co_review]


def selu_where(x):
    return np.where(x > 0, SELU_SCALE * x, SELU_SCALE * SELU_ALPHA * np.expm1(x))


def selu_grad_where(x):
    return np.where(x > 0, SELU_SCALE, SELU_SCALE * SELU_ALPHA * np.exp(np.minimum(x, 0.0)))


def _layers(params: GCNParams):
    """The (propagation weight, skip weight) pair of each layer, first to last."""
    return [(params.w0, params.ws0), (params.w1, params.ws1)]


def _forward_reference(adj_norm, feats, params: GCNParams, masks=None):
    """(assignment, per-layer cache of (input, propagated input, pre-activation))."""
    h = feats
    cache = []
    layers = _layers(params)
    last = len(layers) - 1
    for t, (w, ws) in enumerate(layers):
        agg = adj_norm @ h
        z = agg @ w + h @ ws
        cache.append((h, agg, z))
        if t == last:
            h = z
        else:
            h = selu_where(z)
            if masks is not None:
                h = h * masks[t]
    return _row_softmax(h), cache


def _backward_reference(adj_norm, params: GCNParams, cache, d_logits, masks=None):
    """Gradients of the weight blocks, as a GCNParams, layer by layer from the last."""
    layers = _layers(params)
    n_layers = len(layers)
    grads = [None] * n_layers
    dh = d_logits
    for t in reversed(range(n_layers)):
        h_in, agg, z = cache[t]
        if t != n_layers - 1:
            if masks is not None:
                dh = dh * masks[t]
            dh = dh * selu_grad_where(z)
        grads[t] = (_blocked_gram(agg, dh), _blocked_gram(h_in, dh))
        if t > 0:
            w, ws = layers[t]
            dh = adj_norm @ (dh @ w.T) + dh @ ws.T
    return GCNParams(*grads[0], *grads[1])


def train_reference(adj, features, config: TrainConfig, seed: int = 0) -> TrainResult:
    """clustering.train, one plain array operation at a time.

    Trains on the active subgraph (the nodes with an edge) with the same
    seeded initial weights, dropout stream and loss, and assigns every
    node by a dropout-free forward pass over the full graph.
    """
    adj_sp = sp.csr_array(adj)
    deg_all = np.asarray(adj_sp.sum(axis=1), dtype=np.float64).ravel()
    two_m = float(deg_all.sum())
    feats_all = _float_array(features)
    dtype = feats_all.dtype
    active = np.flatnonzero(deg_all > 0)
    sub = adj_sp[active][:, active]
    loss_adj = sub.astype(dtype, copy=False)
    deg = deg_all[active].astype(dtype, copy=False)
    adj_norm = normalized_adjacency_float64(sub).astype(dtype, copy=False)
    feats = feats_all[active]
    n, n_in = feats.shape
    flat, drop_rng = _seeded_init(n_in, config, seed, dtype)
    params = _views(flat, n_in, config)

    def loss_at():
        assignment, _ = _forward_reference(adj_norm, feats, params)
        return _loss_and_assignment_grad(assignment, loss_adj, deg, two_m)[0]

    initial_loss = loss_at()
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    loss_trace = []
    keep = 1.0 - DROPOUT_RATE
    for epoch in range(config.epochs):
        masks = [
            (drop_rng.random(size=(n, w.shape[1])) < keep).astype(dtype) / keep
            for w, _ in _layers(params)[:-1]
        ]
        assignment, cache = _forward_reference(adj_norm, feats, params, masks)
        loss, d_assign = _loss_and_assignment_grad(assignment, loss_adj, deg, two_m)
        loss_trace.append(float(loss))
        d_logits = _softmax_backward(assignment, d_assign)
        grads = _backward_reference(adj_norm, params, cache, d_logits, masks)
        step = epoch + 1
        for p, g, m, v in zip(params, grads, m_state, v_state):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            p -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)

    full_adj_norm = normalized_adjacency_float64(adj_sp).astype(dtype, copy=False)
    final_assignment, _ = _forward_reference(full_adj_norm, feats_all, params)
    return TrainResult(
        assignment=final_assignment,
        loss_trace=loss_trace,
        params=params,
        config=config,
        seed=seed,
        initial_loss=float(initial_loss),
        final_loss=float(loss_at()),
        n_train_nodes=n,
        clusters=cluster_mask_loop(final_assignment, config.assign_threshold),
    )


def dedupe_reference(table: ReviewTable) -> ReviewTable:
    kept = {}
    for r in table.reviews:
        key = (r.reviewer_id, r.product_id)
        cur = kept.get(key)
        if cur is None or r.date >= cur.date:
            kept[key] = r
    return ReviewTable(kept.values())


def write_reviews_reference(table: ReviewTable, path, delimiter: str = ",") -> None:
    iso = {day: day.isoformat() for day in set(r.date for r in table.reviews)}
    row = io.StringIO()
    writer = csv.writer(row, delimiter=delimiter, lineterminator="\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for r in table.reviews:
            row.seek(0)
            row.truncate()
            writer.writerow(
                (r.reviewer_id, r.product_id, r.rating, DEFAULT_LABEL_TOKENS[r.label], iso[r.date])
            )
            fh.write(row.getvalue()[:-2] + "\n")


def reviews_by(table: ReviewTable, key: str) -> dict[str, list[Review]]:
    """The table's reviews grouped by the ``key`` field, each list in input order."""
    index: dict[str, list[Review]] = defaultdict(list)
    for r in table.reviews:
        index[getattr(r, key)].append(r)
    return dict(index)


@dataclass(frozen=True)
class ProductStats:
    product_id: str
    avg_rating: float
    review_count: int


def product_stats(table: ReviewTable) -> dict[str, ProductStats]:
    """Arithmetic mean rating and count per product, over all of the table's reviews.

    Every user's own review is included in the average of the products it
    rates; singleton products therefore have avg == their one rating.
    """
    stats: dict[str, ProductStats] = {}
    for product, reviews in reviews_by(table, "product_id").items():
        total = sum(r.rating for r in reviews)
        stats[product] = ProductStats(product, total / len(reviews), len(reviews))
    return stats


# ------------------------------------------------- extraction and scoring


@dataclass
class SetGroup:
    """Reviewers pulled from one cluster, with their full product sets."""

    members: frozenset[str]
    member_products: Mapping[str, frozenset[str]]
    source_cluster: int = -1
    group_id: int = -1

    def __post_init__(self):
        if not self.members:
            raise ValueError("candidate group must have members")
        if set(self.member_products) != set(self.members):
            raise ValueError("member_products keys must equal members")
        empty = [m for m, ps in self.member_products.items() if not ps]
        if empty:
            raise ValueError(f"member {min(empty)!r} has no reviewed product")

    @cached_property
    def products(self) -> frozenset[str]:
        return frozenset().union(*self.member_products.values())

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def n_products(self) -> int:
        return len(self.products)


def group_from_table(members: Iterable[str], table: ReviewTable, source_cluster: int = -1) -> SetGroup:
    members = frozenset(members)
    by_reviewer = reviews_by(table, "reviewer_id")
    products = {m: frozenset(r.product_id for r in by_reviewer.get(m, ())) for m in members}
    return SetGroup(members=members, member_products=products, source_cluster=source_cluster)


def cluster_reviewer_support(graph, cluster_nodes: Iterable[int]) -> dict[str, int]:
    """How many distinct cluster nodes each reviewer appears in."""
    support: dict[str, int] = defaultdict(int)
    for i in cluster_nodes:
        for reviewer in graph.nodes[i].reviewers:
            support[reviewer] += 1
    return dict(support)


def extract_group(cluster_nodes, graph, table, min_support=2, source_cluster=-1):
    """Members = reviewers present in >= min_support distinct cluster nodes; None if nobody."""
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    support = cluster_reviewer_support(graph, cluster_nodes)
    members = {r for r, count in support.items() if count >= min_support}
    if not members:
        return None
    return group_from_table(members, table, source_cluster=source_cluster)


def extract_candidate_groups_reference(
    graph, assignment, table, threshold, min_support
) -> list[SetGroup]:
    """indicators.extract_candidate_groups, one piece and one group at a time."""
    clusters = assign_clusters_loop(assignment, threshold)
    groups: list[SetGroup] = []
    seen: set[frozenset[str]] = set()
    for cluster_id in sorted(clusters):
        for piece in connected_components_edge_scan(graph, clusters[cluster_id]):
            group = extract_group(piece, graph, table, min_support, source_cluster=cluster_id)
            if group is None or group.members in seen:
                continue
            seen.add(group.members)
            group.group_id = len(groups)
            groups.append(group)
    return groups


def penalty(group) -> float:
    return 1.0 / (1.0 + math.exp(3 - len(group.members) - len(group.products)))


def review_tightness(group: SetGroup) -> float:
    filled = sum(len(ps) for ps in group.member_products.values())
    raw = filled / (len(group.members) * len(group.products))
    return raw * penalty(group)


def product_tightness(group: SetGroup) -> float:
    sets = list(group.member_products.values())
    common = set(sets[0])
    union = set(sets[0])
    for ps in sets[1:]:
        common &= ps
        union |= ps
    return len(common) / len(union)


def _incidence(sets: list[frozenset[str]]) -> sp.csr_matrix:
    """0/1 sets x products matrix, one row per set in the given order."""
    column: dict[str, int] = {}
    indices = [column.setdefault(p, len(column)) for ps in sets for p in ps]
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(ps) for ps in sets], out=indptr[1:])
    data = np.ones(len(indices), dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(sets), len(column)))


def neighbor_tightness(group: SetGroup) -> float:
    """Weighted distinct-set Jaccard sum over a per-group incidence (see indicators)."""
    n = len(group.members)
    if n < 2:
        return 0.0
    weight = Counter(group.member_products[m] for m in sorted(group.members))
    incidence = _incidence(list(weight))
    transposed = incidence.T.tocsr()
    w = np.fromiter(weight.values(), dtype=np.float64, count=len(weight))
    own_pairs = w * (w - 1) / 2
    sizes = np.diff(incidence.indptr).astype(np.float64)
    n_sets = len(w)
    block_rows = max(1, PAIR_BLOCK_ELEMENTS // n_sets)
    lower = np.tri(min(block_rows, n_sets), k=-1, dtype=bool)
    total = 0.0
    for start in range(0, n_sets, block_rows):
        stop = min(start + block_rows, n_sets)
        r = stop - start
        inter = (incidence[start:stop] @ transposed).toarray()[:, start:]
        terms = sizes[start:stop, None] + sizes[None, start:]
        terms -= inter
        np.divide(inter, terms, out=terms)
        terms *= np.multiply.outer(w[start:stop], w[start:])
        np.copyto(terms[:, :r], 0.0, where=lower[:r, :r])
        np.fill_diagonal(terms, own_pairs[start:stop])
        terms[0, 0] += total
        total = float(np.cumsum(terms)[-1])
    return total / (n * (n - 1) / 2) * penalty(group)


def _reviews_of(reviewer: str, table: ReviewTable) -> list[Review]:
    reviews = [r for r in table.reviews if r.reviewer_id == reviewer]
    if not reviews:
        raise KeyError(f"unknown reviewer {reviewer!r}")
    return reviews


def avg_rating_deviation(reviewer: str, table: ReviewTable, stats: Mapping[str, ProductStats]) -> float:
    reviews = _reviews_of(reviewer, table)
    total = 0.0  # an explicit loop, not sum(): from Python 3.12 sum() compensates float error
    for r in reviews:
        total += abs(r.rating - stats[r.product_id].avg_rating)
    return total / (len(reviews) * MAX_RATING_SPAN)


def burstness(reviewer: str, table: ReviewTable) -> float:
    days = [r.date for r in _reviews_of(reviewer, table)]
    span = (max(days) - min(days)).days
    if span > BURST_THRESHOLD_DAYS:
        return 0.0
    return 1.0 - span / BURST_THRESHOLD_DAYS


def group_indicators(
    group: SetGroup, table: ReviewTable, stats: Mapping[str, ProductStats]
) -> IndicatorVector:
    rt = review_tightness(group)
    pt = product_tightness(group)
    nt = neighbor_tightness(group)
    members = sorted(group.members)
    avd = sum(avg_rating_deviation(m, table, stats) for m in members) / len(members)
    bst = sum(burstness(m, table) for m in members) / len(members)
    return IndicatorVector(
        review_tightness=rt,
        product_tightness=pt,
        neighbor_tightness=nt,
        compactness=rt * pt * nt,
        avg_rating_deviation=avd,
        avg_burstness=bst,
    )


def group_precision(group: SetGroup, table: ReviewTable) -> float | None:
    by_reviewer = reviews_by(table, "reviewer_id")
    any_label = False
    fake = 0
    for member in group.members:
        labels = {r.label for r in by_reviewer.get(member, ())}
        if labels - {LABEL_UNKNOWN}:
            any_label = True
        if LABEL_FAKE in labels:
            fake += 1
    if not any_label:
        return None
    return fake / len(group.members)


def assign_clusters_loop(assignment, threshold: float) -> dict[int, set[int]]:
    c = np.asarray(assignment, dtype=np.float64)
    members: dict[int, set[int]] = {}
    argmax = c.argmax(axis=1)
    for i in range(c.shape[0]):
        targets = {int(argmax[i])} | {int(j) for j in np.flatnonzero(c[i] >= threshold)}
        for j in targets:
            members.setdefault(j, set()).add(i)
    return {j: members[j] for j in sorted(members)}


def cluster_mask_loop(assignment, threshold: float) -> np.ndarray:
    """The node × cluster bool mask of assign_clusters_loop's clusters."""
    c = np.asarray(assignment)
    mask = np.zeros(c.shape, dtype=bool)
    for j, nodes in assign_clusters_loop(c, threshold).items():
        mask[sorted(nodes), j] = True
    return mask


def write_assignment_loop(path, node_ids, assignment, threshold: float) -> None:
    c = np.asarray(assignment, dtype=np.float64)
    clusters = assign_clusters_loop(c, threshold)
    memberships: dict[int, list[int]] = {i: [] for i in range(c.shape[0])}
    for j, nodes in clusters.items():
        for i in nodes:
            memberships[i].append(j)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id,argmax_cluster,memberships,max_prob\n")
        for i, node_id in enumerate(node_ids):
            joined = "|".join(str(j) for j in sorted(memberships[i]))
            fh.write(f"{node_id},{int(c[i].argmax())},{joined},{c[i].max():.6f}\n")
