import csv
import dataclasses
import datetime
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    _forward_reference,
    assign_clusters_loop,
    clustering_loss,
    modularity_matrix,
    normalized_adjacency_float64,
    one_hot,
    selu_grad_where,
    selu_where,
    train_reference,
    write_assignment_loop,
)
from spamrings import clustering
from spamrings.clustering import (
    GRAD_BLOCK_ROWS,
    GCNParams,
    TrainConfig,
    _backward,
    _blocked_gram,
    _forward,
    _loss_and_assignment_grad,
    _prepare,
    _seeded_init,
    _selu_grad,
    _softmax_backward,
    _views,
    gradient_check,
    memberships,
    normalized_adjacency,
    save_checkpoint,
    selu,
    train,
    write_assignment,
)
from spamrings.graph import adjacency_sparse, build_graph, node_features
from spamrings.modularity import modularity
from spamrings.pipeline import PipelineConfig, derive_train_seed, detect
from spamrings.reviews import Review, ReviewTable, dedupe, review_columns
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate


def random_adjacency(rng, n, p=0.5, weighted=False):
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = rng.integers(1, 4) if weighted else 1.0
    return adj


def two_cliques_bridged(size=5):
    n = 2 * size
    adj = np.zeros((n, n))
    for base in (0, size):
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                adj[i, j] = adj[j, i] = 1.0
    adj[size - 1, size] = adj[size, size - 1] = 1.0
    return adj


# ---------------------------------------------------------------- activation


def test_selu_values():
    assert selu(0.0) == 0.0
    assert selu(1.0) == pytest.approx(1.0507009873554805, abs=1e-12)
    assert selu(-40.0) == pytest.approx(-1.7580993408473766, rel=1e-9)


def test_selu_vectorized_monotone():
    x = np.linspace(-6, 6, 201)
    y = selu(x)
    assert (np.diff(y) > 0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selu_and_grad_bit_equal_to_branch_select(dtype):
    info = np.finfo(dtype)
    special = [
        0.0, np.inf, -np.inf, np.nan, info.tiny, -info.tiny,
        info.smallest_subnormal, -info.smallest_subnormal, 3 * info.smallest_subnormal,
        -3 * info.smallest_subnormal, info.max, -info.max, info.eps, -info.eps,
        -20.0, -87.0, -88.7, -104.0, -745.0, -1e4, -1e30, 1e-30, 88.7, 709.0, 1e4,
    ]
    rng = np.random.default_rng(31)
    grid = np.concatenate([
        special,
        np.linspace(-30, 30, 20001),
        rng.normal(scale=4.0, size=200_000),
        -np.logspace(-40, 3, 2000),
        np.logspace(-40, 3, 2000),
    ]).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [(selu(grid), selu_where(grid)), (_selu_grad(grid), selu_grad_where(grid))]
    for got, want in pairs:
        assert got.dtype == want.dtype == dtype
        # assert_array_equal treats the NaNs as equal and -0.0 == +0.0, the one
        # input whose sign the branch-free form does not keep
        np.testing.assert_array_equal(got, want)
    assert not np.signbit(selu(dtype(-0.0)))


# ------------------------------------------------------------- normalization


def dense_normalized_adjacency(adj):
    """Oracle: D^{-1/2} A D^{-1/2} on a dense array."""
    deg = adj.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    return inv_sqrt[:, None] * adj * inv_sqrt[None, :]


def test_normalized_adjacency_single_edge():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(normalized_adjacency(adj).toarray(), adj)


def test_normalized_adjacency_triangle():
    adj = np.ones((3, 3)) - np.eye(3)
    norm = normalized_adjacency(sp.csr_array(adj)).toarray()
    np.testing.assert_allclose(norm, (np.ones((3, 3)) - np.eye(3)) / 2.0)


def test_normalized_adjacency_isolated_row_stays_zero():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 1.0
    norm = normalized_adjacency(sp.csr_array(adj)).toarray()
    assert not norm[2].any()
    assert not norm[:, 2].any()


def test_normalized_adjacency_sparse_matches_dense():
    rng = np.random.default_rng(8)
    adj = random_adjacency(rng, 12, weighted=True)
    sparse = normalized_adjacency(sp.csr_array(adj))
    assert sparse.format == "csr"
    np.testing.assert_allclose(sparse.toarray(), dense_normalized_adjacency(adj), atol=1e-14)


@pytest.mark.parametrize("weighting", ["co_review_count", "binary"])
def test_normalized_adjacency_bit_equal_to_float64_oracle(weighting, monkeypatch):
    """The int32 counts read in place, their float64 cast and their dense form
    give the bits of the float64 copy the normalization used to make, cast
    to the dtype asked for, whatever rows the blocks hold: one block, blocks
    of a few rows, or blocks shorter than a row."""
    adj = adjacency_sparse(build_graph(review_columns(generate(SynthConfig(seed=0))[0])))
    if weighting == "binary":  # int32 ones on the counts' index arrays
        adj = sp.csr_array((np.ones_like(adj.data), adj.indices, adj.indptr), adj.shape)
    oracle = normalized_adjacency_float64(adj)
    assert oracle.nnz > 500 and np.diff(adj.indptr).max() > 5
    for given in (adj, adj.astype(np.float64), adj.toarray()):
        got = normalized_adjacency_float64(given)
        assert got.dtype == np.float64 and got.data.tobytes() == oracle.data.tobytes()
        for block in (clustering.NORM_BLOCK_ENTRIES, 97, 5):
            monkeypatch.setattr(clustering, "NORM_BLOCK_ENTRIES", block)
            for dtype in (np.float32, np.float64):
                got = normalized_adjacency(given, dtype)
                assert got.dtype == dtype
                assert got.data.tobytes() == oracle.data.astype(dtype).tobytes()
                np.testing.assert_array_equal(got.indices, oracle.indices)
                np.testing.assert_array_equal(got.indptr, oracle.indptr)
        assert normalized_adjacency(given).dtype == np.float64


def test_the_run_holds_one_copy_of_the_graph():
    """The adjacency is the co-reviewer count matrix itself, and on an
    all-active graph the two matrices training keeps reuse its index arrays."""
    table, _ = generate(SynthConfig(seed=0))
    graph = build_graph(review_columns(table))
    adj = adjacency_sparse(graph)
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(adj, name), getattr(graph.co_review, name)), name

    # three reviewers rate four products alike: every node has an edge
    every = ReviewTable([Review(f"u{i}", f"p{j}", 5, datetime.date(2014, 1, 1)) for i in range(3) for j in range(4)])
    graph = build_graph(review_columns(every))
    adj = adjacency_sparse(graph)
    prob = _prepare(adj, node_features(graph))
    assert prob.active.size == len(graph.node_keys) == 4
    for matrix in (prob.adj, prob.adj_norm):
        assert np.shares_memory(matrix.indices, graph.co_review.indices)
        assert np.shares_memory(matrix.indptr, graph.co_review.indptr)


# ------------------------------------------------------------------- forward


def random_params(rng, n_in, hidden, k):
    """Fan-in scaled uniform weights, drawn in GCNParams order."""
    shapes = [(n_in, hidden)] * 2 + [(hidden, k)] * 2
    return GCNParams(*(rng.uniform(-1.0, 1.0, size=s) / np.sqrt(s[0]) for s in shapes))


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(0)
    adj = random_adjacency(rng, 8)
    feats = rng.normal(size=(8, 5))
    params = random_params(rng, 5, 7, 3)
    assignment, _ = _forward(normalized_adjacency(adj).__matmul__, feats, params)
    np.testing.assert_allclose(assignment.sum(axis=1), np.ones(8), atol=1e-9)
    assert (assignment >= 0).all()


def test_forward_zero_weights_give_uniform():
    rng = np.random.default_rng(1)
    adj = random_adjacency(rng, 6)
    feats = rng.normal(size=(6, 4))
    params = GCNParams(np.zeros((4, 5)), np.zeros((4, 5)), np.zeros((5, 3)), np.zeros((5, 3)))
    assignment, _ = _forward(normalized_adjacency(adj).__matmul__, feats, params)
    np.testing.assert_allclose(assignment, np.full((6, 3), 1 / 3))


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(2)
    n = 9
    adj = random_adjacency(rng, n, weighted=True)
    feats = rng.normal(size=(n, 4))
    params = random_params(rng, 4, 6, 3)
    perm = rng.permutation(n)
    c1, _ = _forward(normalized_adjacency(adj).__matmul__, feats, params)
    c2, _ = _forward(normalized_adjacency(adj[np.ix_(perm, perm)]).__matmul__, feats[perm], params)
    np.testing.assert_allclose(c2, c1[perm], atol=1e-12)


def test_forward_rejects_feature_width_mismatch():
    rng = np.random.default_rng(3)
    params = random_params(rng, 4, 6, 3)
    with pytest.raises(ValueError):  # numpy's matmul refuses the 7-wide features
        _forward(np.zeros((5, 5)).__matmul__, np.zeros((5, 7)), params)


# ---------------------------------------------------------------------- loss


def test_loss_uniform_assignment_is_zero():
    rng = np.random.default_rng(4)
    for k in range(2, 9):
        adj = random_adjacency(rng, 9, weighted=True)
        if adj.sum() == 0:
            continue
        b = modularity_matrix(adj)
        uniform = np.full((9, k), 1 / k)
        assert clustering_loss(uniform, b, adj.sum(), 0.5) == pytest.approx(0.0, abs=1e-9)


def test_loss_single_cluster_collapse_endpoint():
    rng = np.random.default_rng(5)
    for k in range(2, 9):
        adj = random_adjacency(rng, 9, weighted=True)
        if adj.sum() == 0:
            continue
        b = modularity_matrix(adj)
        lam = 0.5
        hard = np.zeros((9, k))
        hard[:, 0] = 1.0
        expected = lam * (np.sqrt(k) - 1.0)
        assert clustering_loss(hard, b, adj.sum(), lam) == pytest.approx(expected, abs=1e-9)


def test_loss_two_block_graph_is_negative():
    adj = two_cliques_bridged()
    b = modularity_matrix(adj)
    hard = one_hot([0] * 5 + [1] * 5, 2)
    assert clustering_loss(hard, b, adj.sum(), 0.5) < 0.0


def test_loss_hard_assignment_matches_negative_modularity_plus_collapse():
    rng = np.random.default_rng(6)
    for _ in range(20):
        adj = random_adjacency(rng, 8, weighted=True)
        if adj.sum() == 0:
            continue
        labels = rng.integers(0, 3, size=8)
        c = one_hot(labels, 3)
        b = modularity_matrix(adj)
        lam = 0.7
        collapse = (np.sqrt(3) / 8) * np.linalg.norm(c.sum(axis=0)) - 1.0
        expected = -modularity(adj, labels) + lam * collapse
        assert clustering_loss(c, b, adj.sum(), lam) == pytest.approx(expected, abs=1e-10)


def test_loss_invariant_under_cluster_relabeling():
    rng = np.random.default_rng(7)
    adj = random_adjacency(rng, 8, weighted=True)
    b = modularity_matrix(adj)
    c = np.abs(rng.normal(size=(8, 4)))
    c /= c.sum(axis=1, keepdims=True)
    shuffled = c[:, [2, 0, 3, 1]]
    assert clustering_loss(c, b, adj.sum()) == pytest.approx(
        clustering_loss(shuffled, b, adj.sum()), abs=1e-12
    )


def test_loss_rejects_edgeless():
    with pytest.raises(ValueError):
        clustering_loss(np.full((3, 2), 0.5), np.zeros((3, 3)), 0.0)


# ------------------------------------------------------------------ training


def test_train_recovers_planted_cliques():
    adj = two_cliques_bridged()
    feats = np.eye(10)
    truth = np.array([0] * 5 + [1] * 5)
    hits = 0
    for seed in range(10):
        result = train(adj, feats, TrainConfig(n_clusters=2), seed=seed)
        labels = result.assignment.argmax(axis=1)
        agree = max((labels == truth).mean(), (labels == 1 - truth).mean())
        if agree >= 0.9:
            hits += 1
    assert hits >= 9


def test_train_is_deterministic_per_seed():
    adj = two_cliques_bridged()
    feats = np.eye(10)
    cfg = TrainConfig(n_clusters=2, epochs=60)
    r1 = train(adj, feats, cfg, seed=33)
    r2 = train(adj, feats, cfg, seed=33)
    assert r1.loss_trace == r2.loss_trace
    np.testing.assert_array_equal(r1.assignment, r2.assignment)


def test_train_reduces_dropout_free_loss():
    rng = np.random.default_rng(9)
    adj = random_adjacency(rng, 14, p=0.4, weighted=True)
    feats = rng.normal(size=(14, 6))
    result = train(adj, feats, TrainConfig(n_clusters=3, epochs=200), seed=1)
    assert result.final_loss <= result.initial_loss
    assert len(result.loss_trace) == 200


def test_train_rejects_edgeless_graph():
    with pytest.raises(ValueError, match="no edges"):
        train(np.zeros((4, 4)), np.eye(4), TrainConfig(n_clusters=2))
    with pytest.raises(ValueError, match="disagree on node count"):
        train(two_cliques_bridged(), np.eye(9), TrainConfig(n_clusters=2))


def test_train_aborts_on_non_finite_loss():
    adj = two_cliques_bridged()
    feats = np.eye(10)
    feats[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="diverged"):
        train(adj, feats, TrainConfig(n_clusters=2, epochs=5))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_clusters=1)
    with pytest.raises(ValueError):
        TrainConfig(assign_threshold=0.0)


# ------------------------------------------------- training on active nodes


def pad_with_isolated(adj, feats, rng, positions):
    """The graph with an isolated node inserted before each given original index."""
    n = adj.shape[0] + len(positions)
    keep = np.delete(np.arange(n), [p + i for i, p in enumerate(sorted(positions))])
    padded = np.zeros((n, n))
    padded[np.ix_(keep, keep)] = adj
    padded_feats = rng.normal(scale=3.0, size=(n, feats.shape[1]))
    padded_feats[keep] = feats
    return padded, padded_feats, keep


def connected_random_graph(rng, n):
    adj = random_adjacency(rng, n, p=0.3, weighted=True)
    for i in range(n):  # a ring keeps every node's degree positive
        j = (i + 1) % n
        adj[i, j] = adj[j, i] = max(adj[i, j], 1.0)
    return adj


def test_isolated_nodes_leave_training_unchanged():
    rng = np.random.default_rng(21)
    adj = connected_random_graph(rng, 12)
    feats = rng.normal(size=(12, 5))
    padded, padded_feats, keep = pad_with_isolated(adj, feats, rng, [0, 5, 5, 12])
    cfg = TrainConfig(n_clusters=3, hidden_width=8, epochs=40)
    base = train(adj, feats, cfg, seed=6)
    result = train(padded, padded_feats, cfg, seed=6)
    assert result.loss_trace == base.loss_trace
    assert result.initial_loss == base.initial_loss
    assert result.final_loss == base.final_loss
    assert (result.n_train_nodes, base.n_train_nodes) == (12, 12)
    for a, b in zip(result.params, base.params):
        np.testing.assert_array_equal(a, b)
    assert result.assignment.shape == (16, 3)
    np.testing.assert_allclose(result.assignment[keep], base.assignment, rtol=0, atol=1e-12)


def check_isolated_rows_come_from_a_full_forward_pass(dtype):
    rng = np.random.default_rng(22)
    adj = connected_random_graph(rng, 10)
    padded, feats, keep = pad_with_isolated(adj, rng.normal(size=(10, 4)), rng, [3, 10])
    feats = feats.astype(dtype)
    result = train(padded, feats, TrainConfig(n_clusters=3, hidden_width=6, epochs=30), seed=2)
    assert result.assignment.dtype == dtype
    full, _ = _forward_reference(normalized_adjacency(padded).astype(dtype), feats, result.params)
    isolated = np.setdiff1d(np.arange(12), keep)
    np.testing.assert_array_equal(result.assignment[isolated], full[isolated])
    # no neighbours: an isolated row is the skip path alone
    skip_only = selu(feats[isolated] @ result.params.ws0) @ result.params.ws1
    skip_only = np.exp(skip_only - skip_only.max(axis=1, keepdims=True))
    skip_only /= skip_only.sum(axis=1, keepdims=True)
    assert skip_only.dtype == dtype
    np.testing.assert_allclose(result.assignment[isolated], skip_only, rtol=0, atol=1e-12)


def test_isolated_rows_come_from_a_full_forward_pass():
    check_isolated_rows_come_from_a_full_forward_pass(np.float64)


def test_isolated_rows_come_from_a_full_forward_pass_in_float32():
    check_isolated_rows_come_from_a_full_forward_pass(np.float32)


def test_gradient_check_with_isolated_nodes():
    rng = np.random.default_rng(23)
    adj = connected_random_graph(rng, 8)
    padded, feats, _ = pad_with_isolated(adj, rng.normal(size=(8, 5)), rng, [0, 4, 8])
    cfg = TrainConfig(n_clusters=3, hidden_width=7)
    assert gradient_check(padded, feats, cfg, seed=3) <= 1e-4


def test_min_support_one_keeps_a_group_per_isolated_reviewer_set():
    table, _ = generate(
        SynthConfig(
            n_reviewers=300,
            n_products=80,
            reviews_per_reviewer=4,
            horizon_days=360,
            planted=[PlantedGroupConfig(size=22, n_targets=4)],
            seed=9,
        )
    )
    config = PipelineConfig(input="synthetic", seed=5)
    config.train.epochs = 60
    config.train.n_clusters = 20
    config.group.min_support = 1
    result = detect(review_columns(dedupe(table)), config)
    degree = np.asarray(adjacency_sparse(result.graph).sum(axis=1)).ravel()
    isolated_sets = {result.graph.nodes[i].reviewers for i in np.flatnonzero(degree == 0)}
    assert result.train_result.n_train_nodes == np.count_nonzero(degree)
    assert len(isolated_sets) > 100
    members = [sg.group.members for sg in result.ranking.full]
    assert len(members) == len(set(members))
    assert isolated_sets <= set(members)


# ------------------------------------------------------------ float32 path


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_bit_equal_to_reference_epoch(dtype):
    """More active nodes than one gradient block, first with isolated nodes
    among them, then with none, where training reads the input's own matrix."""
    for n_isolated in (25, 0):
        rng = np.random.default_rng(43)
        n = GRAD_BLOCK_ROWS + 80
        u, v = rng.integers(0, n, size=(2, 4 * n))
        adj = np.zeros((n, n))
        adj[u, v] = adj[v, u] = rng.integers(1, 4, size=u.size)
        np.fill_diagonal(adj, 0.0)
        ring = np.arange(n)
        adj[ring, (ring + 1) % n] = adj[(ring + 1) % n, ring] = 1.0
        positions = sorted(rng.choice(n, size=n_isolated, replace=False).tolist())
        padded, feats, _ = pad_with_isolated(adj, rng.normal(size=(n, 7)), rng, positions)
        feats = feats.astype(dtype)
        cfg = TrainConfig(epochs=15)
        adj_sp = sp.csr_array(padded)
        if not n_isolated:
            assert np.shares_memory(_prepare(adj_sp, feats).adj.indices, adj_sp.indices)
        got, want = train(adj_sp, feats, cfg, seed=8), train_reference(padded, feats, cfg, seed=8)
        assert got.n_train_nodes == want.n_train_nodes == n
        assert got.loss_trace == want.loss_trace
        assert (got.initial_loss, got.final_loss) == (want.initial_loss, want.final_loss)
        assert got.clusters.dtype == want.clusters.dtype == np.bool_
        assert np.array_equal(got.clusters, want.clusters), n_isolated
        pairs = [("assignment", got.assignment, want.assignment)] + [
            (name, a, b) for name, a, b in zip(GCNParams._fields, got.params, want.params)
        ]
        for name, a, b in pairs:
            assert a.dtype == b.dtype == dtype, (n_isolated, name)
            assert a.tobytes() == b.tobytes(), (n_isolated, name)


def test_graph_and_training_matrices_carry_int32_indices():
    """The incidence's int32 offsets carry through BᵀB to every matrix training holds."""
    table, _ = generate(SynthConfig(seed=0))
    graph = build_graph(review_columns(table))
    adj = adjacency_sparse(graph)
    prob = _prepare(adj, node_features(graph))
    matrices = {
        "incidence": graph.incidence, "co_review": graph.co_review, "adjacency": adj,
        "train_adj": prob.adj, "train_adj_norm": prob.adj_norm,
    }
    dtypes = {name: (m.indices.dtype, m.indptr.dtype) for name, m in matrices.items()}
    assert dtypes == dict.fromkeys(matrices, (np.dtype(np.int32), np.dtype(np.int32)))
    # adj and adj_norm have one sparsity pattern, held once
    assert np.shares_memory(prob.adj.indices, prob.adj_norm.indices)
    assert np.shares_memory(prob.adj.indptr, prob.adj_norm.indptr)


def test_seeded_init_draws_the_blocks_in_order_in_float64_then_casts():
    cfg = TrainConfig(n_clusters=3, hidden_width=4)
    init_seq, drop_seq = np.random.SeedSequence(7).spawn(2)
    rng = np.random.Generator(np.random.PCG64(init_seq))
    shapes = [(5, 4), (5, 4), (4, 3), (4, 3)]
    drawn = [rng.uniform(-1.0 / np.sqrt(a), 1.0 / np.sqrt(a), size=(a, b)) for a, b in shapes]
    for dtype in (np.float64, np.float32):
        flat, drop_rng = _seeded_init(5, cfg, 7, dtype)
        assert flat.dtype == dtype and flat.shape == (sum(a * b for a, b in shapes),)
        for name, view, want in zip(GCNParams._fields, _views(flat, 5, cfg), drawn):
            assert np.shares_memory(view, flat), name
            assert view.tobytes() == want.astype(dtype).tobytes(), name
        assert drop_rng.random() == np.random.Generator(np.random.PCG64(drop_seq)).random()


def test_float32_training_arrays_stay_float32():
    rng = np.random.default_rng(24)
    adj = connected_random_graph(rng, 12)
    padded, feats, _ = pad_with_isolated(adj, rng.normal(size=(12, 5)), rng, [4])
    cfg = TrainConfig(n_clusters=3, hidden_width=8)
    prob = _prepare(padded, feats.astype(np.float32))
    flat, drop_rng = _seeded_init(5, cfg, 1, np.float32)
    params = _views(flat, 5, cfg)
    mask = (drop_rng.random(size=(12, 8)) < 0.5).astype(np.float32) / 0.5
    assignment, cache = _forward(prob.propagate, prob.feats, params, mask)
    loss, d_assign = _loss_and_assignment_grad(assignment, prob.adj, prob.deg, prob.two_m)
    d_logits = _softmax_backward(assignment, d_assign)
    grads = _backward(prob.propagate, prob.feats, params, cache, d_logits, mask)
    arrays = {
        "adj": prob.adj, "deg": prob.deg, "adj_norm": prob.adj_norm, "feats": prob.feats,
        "agg0": prob.agg0,
        "assignment": assignment, "d_assign": d_assign, "d_logits": d_logits, "flat": flat,
    }
    for name, group in (("weight", params), ("grad", grads), ("cache", cache)):
        arrays.update((f"{name}_{i}", a) for i, a in enumerate(group))
    assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.float32)
    assert type(loss) is float and np.isfinite(loss)
    result = train(padded, feats.astype(np.float32), dataclasses.replace(cfg, epochs=3), seed=1)
    assert result.assignment.dtype == np.float32
    assert {w.dtype for w in result.params} == {np.dtype(np.float32)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "n", [GRAD_BLOCK_ROWS - 1, GRAD_BLOCK_ROWS, 3 * GRAD_BLOCK_ROWS + 17]
)
def test_blocked_gram_matches_plain_product(n, dtype):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 7)).astype(dtype)
    b = rng.normal(size=(n, 5)).astype(dtype)
    got = _blocked_gram(a, b)
    assert got.dtype == dtype
    if n <= GRAD_BLOCK_ROWS:
        np.testing.assert_array_equal(got, a.T @ b)
    else:
        # both sums are within n·eps·(|a|ᵀ|b|) of the exact one
        bound = 2 * n * np.finfo(dtype).eps * (np.abs(a).T @ np.abs(b))
        assert (np.abs(got - a.T @ b) <= bound).all()


# Trains a seeded random graph of 1,000 nodes, every one with an edge, and
# saves the parameters, loss trace and assignment to argv[2].
_THREAD_RUN = """
import sys
import numpy as np
import scipy.sparse as sp
from spamrings.clustering import TrainConfig, train

dtype, out = sys.argv[1], sys.argv[2]
rng = np.random.default_rng(41)
n = 1000
u, v = rng.integers(0, n, size=(2, 6000))
keep = u != v
u, v = u[keep], v[keep]
w = rng.integers(1, 4, size=u.size).astype(np.float64)
adj = sp.csr_array((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(n, n))
feats = rng.normal(size=(n, 7)).astype(dtype)
result = train(adj, feats, TrainConfig(epochs=20), seed=5)
assert result.n_train_nodes == n
np.savez(
    out,
    *result.params,
    loss_trace=np.array(result.loss_trace),
    assignment=result.assignment,
)
"""


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_bit_equal_across_blas_thread_counts(dtype, tmp_path):
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_RUN, dtype, str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with np.load(out) as data:
            runs.append({name: data[name] for name in data.files})
    one, two = runs
    assert one.keys() == two.keys()
    assert one["arr_0"].dtype == one["assignment"].dtype == np.dtype(dtype)
    assert [name for name in one if one[name].tobytes() != two[name].tobytes()] == []


# Largest relative gap between the float32 and float64 final losses below,
# measured at 3.2e-7 (synth seed 0, detect seed 0) and 6.7e-7 (seed 21).
FLOAT32_FINAL_LOSS_RTOL = 5e-6


@pytest.mark.parametrize("detect_seed", [0, 21], ids=["synth-seed-0", "criterion-7-input"])
def test_float32_and_float64_training_give_one_partition(detect_seed):
    table, _ = generate(SynthConfig(seed=0))
    config = PipelineConfig(input="synthetic", seed=detect_seed)
    graph = build_graph(review_columns(dedupe(table)))
    adj = adjacency_sparse(graph)
    feats = node_features(graph)
    assert feats.dtype == np.float32
    cfg, seed = config.train, derive_train_seed(detect_seed)
    single = train(adj, feats, cfg, seed=seed)
    double = train(adj, feats.astype(np.float64), cfg, seed=seed)
    assert single.assignment.dtype == np.float32 and double.assignment.dtype == np.float64
    np.testing.assert_array_equal(single.assignment.argmax(axis=1), double.assignment.argmax(axis=1))
    np.testing.assert_array_equal(single.clusters, double.clusters)
    assert single.final_loss == pytest.approx(double.final_loss, rel=FLOAT32_FINAL_LOSS_RTOL)


# ------------------------------------------------------------ gradient check


def test_gradient_check_small_instances():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        adj = random_adjacency(rng, 10, weighted=bool(seed % 2))
        if adj.sum() == 0:
            continue
        feats = rng.normal(size=(10, 6))
        cfg = TrainConfig(n_clusters=3, hidden_width=12)
        assert gradient_check(adj, feats, cfg, seed=seed) <= 1e-4


def test_gradient_check_zero_weight_symmetric_point():
    rng = np.random.default_rng(11)
    adj = random_adjacency(rng, 8)
    adj_norm = normalized_adjacency(adj)
    feats = rng.normal(size=(8, 4))
    params = GCNParams(np.zeros((4, 6)), np.zeros((4, 6)), np.zeros((6, 3)), np.zeros((6, 3)))
    # loss is flat to first order here: analytic gradients must be finite
    assignment, _ = _forward(adj_norm.__matmul__, feats, params)
    assert np.isfinite(assignment).all()
    # full check still passes at a nearby seeded point with tiny weights
    cfg = TrainConfig(n_clusters=3, hidden_width=6)
    assert gradient_check(adj, feats, cfg, seed=0) <= 1e-4


def test_gradient_check_covers_both_weight_blocks():
    # denser graph exercises both the propagation and skip paths hard
    rng = np.random.default_rng(13)
    adj = random_adjacency(rng, 9, p=0.7)
    feats = rng.normal(size=(9, 5))
    cfg = TrainConfig(n_clusters=4, hidden_width=8)
    assert gradient_check(adj, feats, cfg, seed=4) <= 1e-4


# ------------------------------------------------------------- hard clusters


def clusters_of(mask):
    """The node set of each cluster that has a node, as ``assign_clusters_loop`` gives them."""
    nonempty = np.flatnonzero(mask.any(axis=0)).tolist()
    return {j: set(np.flatnonzero(mask[:, j]).tolist()) for j in nonempty}


def test_memberships_threshold_rules():
    c = np.array([[0.7, 0.3], [0.95, 0.05]])
    np.testing.assert_array_equal(memberships(c, threshold=0.2), [[True, True], [True, False]])


def test_memberships_uniform_row_joins_everything():
    c = np.full((1, 4), 0.25)
    np.testing.assert_array_equal(memberships(c, threshold=0.2), np.ones((1, 4), dtype=bool))


def test_memberships_leave_unattractive_clusters_empty():
    c = np.array([[0.9, 0.05, 0.05], [0.85, 0.1, 0.05]])
    np.testing.assert_array_equal(memberships(c, threshold=0.2).any(axis=0), [True, False, False])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("threshold", [0.05, 0.15])
def test_train_result_clusters_are_memberships_at_assign_threshold(dtype, threshold):
    rng = np.random.default_rng(21)
    adj = random_adjacency(rng, 30, p=0.2, weighted=True)
    cfg = TrainConfig(n_clusters=6, epochs=20, assign_threshold=threshold)
    result = train(adj, rng.normal(size=(30, 5)).astype(dtype), cfg, seed=4)
    assert result.clusters.dtype == np.bool_
    assert result.clusters.shape == result.assignment.shape
    assert np.array_equal(result.clusters, memberships(result.assignment, threshold))
    # some node sits in more than its argmax cluster, so the threshold was read
    assert result.clusters.sum() > result.clusters.shape[0]


def random_assignments(rng):
    """Soft assignments of float32 and float64 rows, with values on the threshold and ties."""
    for n, k in ((0, 3), (1, 1), (7, 4), (300, 12), (1176, 50)):
        logits = rng.normal(scale=rng.uniform(0.5, 4.0), size=(n, k))
        c = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        if n > 1:
            c[0, :] = 1.0 / k  # a tie everywhere
            c[1, 0] = 0.2  # exactly the threshold
        for dtype in (np.float32, np.float64):
            yield c.astype(dtype)


def test_memberships_equal_per_node_loop():
    for c in random_assignments(np.random.default_rng(12)):
        for threshold in (0.05, 0.2, 0.5):
            got = clusters_of(memberships(c, threshold))
            expected = assign_clusters_loop(c, threshold)
            assert got == expected and list(got) == list(expected)


def test_write_assignment_bytes_equal_per_node_loop(tmp_path):
    for i, c in enumerate(random_assignments(np.random.default_rng(13))):
        node_ids = [f"p{j}#5" for j in range(c.shape[0])]
        write_assignment(tmp_path / "fast.csv", node_ids, c, memberships(c, 0.2))
        write_assignment_loop(tmp_path / "loop.csv", node_ids, c, threshold=0.2)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes(), i


# ----------------------------------------------------------------- artifacts


def test_checkpoint_round_trip(tmp_path):
    adj = two_cliques_bridged()
    cfg = TrainConfig(n_clusters=2, epochs=30)
    result = train(adj, np.eye(10), cfg, seed=5)
    assert result.seed == 5
    path = tmp_path / "model.npz"
    save_checkpoint(path, result)
    weight_keys = ["weight_0", "skip_weight_0", "weight_1", "skip_weight_1"]
    with np.load(path, allow_pickle=False) as data:
        assert data.files == ["version", "n_layers", "config_json", "final_loss", *weight_keys]
        assert (int(data["version"]), int(data["n_layers"])) == (1, 2)
        assert json.loads(str(data["config_json"])) == {**dataclasses.asdict(cfg), "seed": 5}
        assert float(data["final_loss"]) == result.final_loss
        for key, w in zip(weight_keys, result.params):
            assert data[key].dtype == w.dtype
            np.testing.assert_array_equal(data[key], w)


def test_assignment_export(tmp_path):
    c = np.array([[0.7, 0.3], [0.1, 0.9]])
    path = tmp_path / "assign.csv"
    write_assignment(path, ["p1#5", "p2#4"], c, memberships(c, 0.2))
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,argmax_cluster,memberships,max_prob"
    assert lines[1] == "p1#5,0,0|1,0.700000"
    assert lines[2] == "p2#4,1,1,0.900000"


def test_assignment_export_quotes_ids_holding_a_comma_or_quote(tmp_path):
    """An id holding a line feed or a carriage return is quoted too, so every row reads back."""
    c = np.array([[0.7, 0.3], [0.1, 0.9], [0.5, 0.5], [0.2, 0.8], [0.6, 0.4]])
    node_ids = ["shop, north#5", 'the "best"#4', "plain#1", "two\nlines#3", "old\rmac#2"]
    path = tmp_path / "assign.csv"
    write_assignment(path, node_ids, c, memberships(c, 0.2))
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [4] * 6
    assert [row[0] for row in rows[1:]] == node_ids
    assert path.read_text().splitlines()[1] == '"shop, north#5",0,0|1,0.700000'
