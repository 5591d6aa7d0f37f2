"""Dense reference implementations the tests compare production code against.

Exact modularity of a hard partition, plus a brute-force oracle.

Conventions: the sum runs over ordered node pairs including i == j, which
makes the pairwise form agree exactly with the trace form
(1/2m) Tr(Cᵀ B C) where B = A - d dᵀ / 2m. Weighted graphs are handled by
reading d as weighted degree and 2m as total weight.

``clustering_loss`` is the training objective written with the dense B;
training itself computes it sparsely.

``connected_components_edge_scan`` is the union-find over every edge of
the graph that ``graph.connected_components`` replaced.

``build_edges_pair_count`` is the reviewer-by-reviewer pair count that
``graph.co_review_matrix`` replaced.

``train_reference`` is the training epoch that ``clustering.train``
replaced: SeLU and its derivative by ``np.where``, one Adam update per
weight block, Â X recomputed every epoch, and a final forward pass over
the full graph.

``dedupe_reference`` is the per-row ``get``-then-set loop that
``reviews.dedupe`` replaced.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from spamrings.clustering import (
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
    normalized_adjacency,
)
from spamrings.reviews import ReviewTable

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


def _forward_reference(adj_norm, feats, params: GCNParams, masks=None):
    """(assignment, per-layer cache of (input, propagated input, pre-activation))."""
    h = feats
    cache = []
    last = params.n_layers - 1
    for t, (w, ws) in enumerate(zip(params.weights, params.skip_weights)):
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
    grads_w = [None] * params.n_layers
    grads_ws = [None] * params.n_layers
    dh = d_logits
    for t in reversed(range(params.n_layers)):
        h_in, agg, z = cache[t]
        if t != params.n_layers - 1:
            if masks is not None:
                dh = dh * masks[t]
            dh = dh * selu_grad_where(z)
        grads_w[t] = _blocked_gram(agg, dh)
        grads_ws[t] = _blocked_gram(h_in, dh)
        if t > 0:
            dh = adj_norm @ (dh @ params.weights[t].T) + dh @ params.skip_weights[t].T
    return grads_w, grads_ws


def train_reference(adj, features, config: TrainConfig) -> TrainResult:
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
    adj_norm = normalized_adjacency(sub).astype(dtype, copy=False)
    feats = feats_all[active]
    n = feats.shape[0]
    params, drop_rng = _seeded_init(feats, config)

    def loss_at():
        assignment, _ = _forward_reference(adj_norm, feats, params)
        return _loss_and_assignment_grad(
            assignment, loss_adj, deg, two_m, config.collapse_weight
        )[0]

    initial_loss = loss_at()
    flat = params.weights + params.skip_weights
    m_state = [np.zeros_like(p) for p in flat]
    v_state = [np.zeros_like(p) for p in flat]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    loss_trace = []
    for epoch in range(config.epochs):
        masks = None
        if config.dropout_rate > 0:
            keep = 1.0 - config.dropout_rate
            masks = [
                (drop_rng.random(size=(n, width)) < keep).astype(dtype) / keep
                for width in params.layer_sizes[1:-1]
            ]
        assignment, cache = _forward_reference(adj_norm, feats, params, masks)
        loss, d_assign = _loss_and_assignment_grad(
            assignment, loss_adj, deg, two_m, config.collapse_weight
        )
        loss_trace.append(float(loss))
        d_logits = _softmax_backward(assignment, d_assign)
        grads_w, grads_ws = _backward_reference(adj_norm, params, cache, d_logits, masks)
        step = epoch + 1
        for p, g, m, v in zip(flat, grads_w + grads_ws, m_state, v_state):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    full_adj_norm = normalized_adjacency(adj_sp).astype(dtype, copy=False)
    final_assignment, _ = _forward_reference(full_adj_norm, feats_all, params)
    return TrainResult(
        assignment=final_assignment,
        loss_trace=loss_trace,
        params=params,
        config=config,
        initial_loss=float(initial_loss),
        final_loss=float(loss_at()),
        n_train_nodes=n,
    )


def dedupe_reference(table: ReviewTable, policy: str = "keep_latest") -> ReviewTable:
    kept = {}
    for r in table.reviews:
        key = (r.reviewer_id, r.product_id)
        cur = kept.get(key)
        if cur is None:
            kept[key] = r
        elif policy == "keep_latest" and r.date >= cur.date:
            kept[key] = r
        elif policy == "keep_first" and r.date < cur.date:
            kept[key] = r
    return ReviewTable(kept.values())
