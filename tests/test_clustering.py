import numpy as np
import pytest
import scipy.sparse as sp

from spamrings.clustering import (
    GCNParams,
    TrainConfig,
    assign_clusters,
    clustering_loss,
    gcn_forward,
    gradient_check,
    load_checkpoint,
    normalized_adjacency,
    save_checkpoint,
    selu,
    train,
    write_assignment,
)
from spamrings.graph import adjacency_sparse
from spamrings.modularity import modularity, modularity_matrix, one_hot
from spamrings.pipeline import PipelineConfig, detect
from spamrings.reviews import dedupe
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


def test_normalized_adjacency_self_loop_variant():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    norm = normalized_adjacency(sp.csr_array(adj), add_self_loops=True).toarray()
    np.testing.assert_allclose(norm, np.full((2, 2), 0.5))


def test_normalized_adjacency_sparse_matches_dense():
    rng = np.random.default_rng(8)
    adj = random_adjacency(rng, 12, weighted=True)
    sparse = normalized_adjacency(sp.csr_array(adj))
    assert sparse.format == "csr"
    np.testing.assert_allclose(sparse.toarray(), dense_normalized_adjacency(adj), atol=1e-14)


# ------------------------------------------------------------------- forward


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(0)
    adj = random_adjacency(rng, 8)
    feats = rng.normal(size=(8, 5))
    params = GCNParams.init([5, 7, 3], rng)
    _, _, assignment = gcn_forward(normalized_adjacency(adj), feats, params)
    np.testing.assert_allclose(assignment.sum(axis=1), np.ones(8), atol=1e-9)
    assert (assignment >= 0).all()


def test_forward_zero_weights_give_uniform():
    rng = np.random.default_rng(1)
    adj = random_adjacency(rng, 6)
    feats = rng.normal(size=(6, 4))
    params = GCNParams([np.zeros((4, 5)), np.zeros((5, 3))], [np.zeros((4, 5)), np.zeros((5, 3))])
    _, _, assignment = gcn_forward(normalized_adjacency(adj), feats, params)
    np.testing.assert_allclose(assignment, np.full((6, 3), 1 / 3))


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(2)
    n = 9
    adj = random_adjacency(rng, n, weighted=True)
    feats = rng.normal(size=(n, 4))
    params = GCNParams.init([4, 6, 3], rng)
    perm = rng.permutation(n)
    _, _, c1 = gcn_forward(normalized_adjacency(adj), feats, params)
    _, _, c2 = gcn_forward(
        normalized_adjacency(adj[np.ix_(perm, perm)]), feats[perm], params
    )
    np.testing.assert_allclose(c2, c1[perm], atol=1e-12)


def test_forward_rejects_feature_width_mismatch():
    rng = np.random.default_rng(3)
    params = GCNParams.init([4, 6, 3], rng)
    with pytest.raises(ValueError):
        gcn_forward(np.zeros((5, 5)), np.zeros((5, 7)), params)


def test_params_shape_chain_validated():
    with pytest.raises(ValueError):
        GCNParams([np.zeros((4, 6)), np.zeros((5, 3))], [np.zeros((4, 6)), np.zeros((5, 3))])
    with pytest.raises(ValueError):
        GCNParams([np.zeros((4, 6))], [np.zeros((4, 5))])


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
        cfg = TrainConfig(n_clusters=2, seed=seed)
        result = train(adj, feats, cfg)
        labels = result.assignment.argmax(axis=1)
        agree = max((labels == truth).mean(), (labels == 1 - truth).mean())
        if agree >= 0.9:
            hits += 1
    assert hits >= 9


def test_train_is_deterministic_per_seed():
    adj = two_cliques_bridged()
    feats = np.eye(10)
    cfg = TrainConfig(n_clusters=2, seed=33, epochs=60)
    r1 = train(adj, feats, cfg)
    r2 = train(adj, feats, cfg)
    assert r1.loss_trace == r2.loss_trace
    np.testing.assert_array_equal(r1.assignment, r2.assignment)


def test_train_reduces_dropout_free_loss():
    rng = np.random.default_rng(9)
    adj = random_adjacency(rng, 14, p=0.4, weighted=True)
    feats = rng.normal(size=(14, 6))
    cfg = TrainConfig(n_clusters=3, seed=1, epochs=200)
    result = train(adj, feats, cfg)
    assert result.final_loss <= result.initial_loss
    assert len(result.loss_trace) == 200


def test_train_rejects_edgeless_graph():
    with pytest.raises(ValueError):
        train(np.zeros((4, 4)), np.eye(4), TrainConfig(n_clusters=2))


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
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)
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
    cfg = TrainConfig(n_clusters=3, hidden_width=8, epochs=40, seed=6)
    base = train(adj, feats, cfg)
    result = train(padded, padded_feats, cfg)
    assert result.loss_trace == base.loss_trace
    assert result.initial_loss == base.initial_loss
    assert result.final_loss == base.final_loss
    assert (result.n_train_nodes, base.n_train_nodes) == (12, 12)
    for a, b in zip(
        result.params.weights + result.params.skip_weights,
        base.params.weights + base.params.skip_weights,
    ):
        np.testing.assert_array_equal(a, b)
    assert result.assignment.shape == (16, 3)
    np.testing.assert_allclose(result.assignment[keep], base.assignment, rtol=0, atol=1e-12)


def test_isolated_rows_come_from_a_full_forward_pass():
    rng = np.random.default_rng(22)
    adj = connected_random_graph(rng, 10)
    padded, feats, keep = pad_with_isolated(adj, rng.normal(size=(10, 4)), rng, [3, 10])
    result = train(padded, feats, TrainConfig(n_clusters=3, hidden_width=6, epochs=30, seed=2))
    _, _, full = gcn_forward(normalized_adjacency(padded), feats, result.params)
    isolated = np.setdiff1d(np.arange(12), keep)
    np.testing.assert_array_equal(result.assignment[isolated], full[isolated])
    # no neighbours: an isolated row is the skip path alone
    ws = result.params.skip_weights
    skip_only = selu(feats[isolated] @ ws[0]) @ ws[1]
    skip_only = np.exp(skip_only - skip_only.max(axis=1, keepdims=True))
    skip_only /= skip_only.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(result.assignment[isolated], skip_only, rtol=0, atol=1e-12)


def test_gradient_check_with_isolated_nodes():
    rng = np.random.default_rng(23)
    adj = connected_random_graph(rng, 8)
    padded, feats, _ = pad_with_isolated(adj, rng.normal(size=(8, 5)), rng, [0, 4, 8])
    cfg = TrainConfig(n_clusters=3, hidden_width=7, seed=3)
    assert gradient_check(padded, feats, cfg) <= 1e-4


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
    result = detect(dedupe(table), config)
    degree = np.asarray(adjacency_sparse(result.graph).sum(axis=1)).ravel()
    isolated_sets = {result.graph.nodes[i].reviewers for i in np.flatnonzero(degree == 0)}
    assert result.train_result.n_train_nodes == np.count_nonzero(degree)
    assert len(isolated_sets) > 100
    members = [sg.group.members for sg in result.scored]
    assert len(members) == len(set(members))
    assert isolated_sets <= set(members)


# ------------------------------------------------------------ gradient check


def test_gradient_check_small_instances():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        adj = random_adjacency(rng, 10, weighted=bool(seed % 2))
        if adj.sum() == 0:
            continue
        feats = rng.normal(size=(10, 6))
        cfg = TrainConfig(n_clusters=3, hidden_width=12, seed=seed)
        assert gradient_check(adj, feats, cfg) <= 1e-4


def test_gradient_check_zero_weight_symmetric_point():
    rng = np.random.default_rng(11)
    adj = random_adjacency(rng, 8)
    adj_norm = normalized_adjacency(adj)
    feats = rng.normal(size=(8, 4))
    params = GCNParams([np.zeros((4, 6)), np.zeros((6, 3))], [np.zeros((4, 6)), np.zeros((6, 3))])
    # loss is flat to first order here: analytic gradients must be finite
    _, _, assignment = gcn_forward(adj_norm, feats, params)
    assert np.isfinite(assignment).all()
    # full check still passes at a nearby seeded point with tiny weights
    cfg = TrainConfig(n_clusters=3, hidden_width=6, seed=0)
    assert gradient_check(adj, feats, cfg) <= 1e-4


def test_gradient_check_covers_both_weight_blocks():
    # denser graph exercises both the propagation and skip paths hard
    rng = np.random.default_rng(13)
    adj = random_adjacency(rng, 9, p=0.7)
    feats = rng.normal(size=(9, 5))
    cfg = TrainConfig(n_clusters=4, hidden_width=8, seed=4)
    assert gradient_check(adj, feats, cfg) <= 1e-4


# ------------------------------------------------------------- hard clusters


def test_assign_clusters_threshold_rules():
    c = np.array([[0.7, 0.3], [0.95, 0.05]])
    clusters = assign_clusters(c, threshold=0.2)
    assert clusters == {0: {0, 1}, 1: {0}}


def test_assign_clusters_uniform_row_joins_everything():
    c = np.full((1, 4), 0.25)
    clusters = assign_clusters(c, threshold=0.2)
    assert clusters == {0: {0}, 1: {0}, 2: {0}, 3: {0}}


def test_assign_clusters_drops_empty_clusters():
    c = np.array([[0.9, 0.05, 0.05], [0.85, 0.1, 0.05]])
    clusters = assign_clusters(c, threshold=0.2)
    assert set(clusters) == {0}


# ----------------------------------------------------------------- artifacts


def test_checkpoint_round_trip(tmp_path):
    adj = two_cliques_bridged()
    cfg = TrainConfig(n_clusters=2, seed=5, epochs=30)
    result = train(adj, np.eye(10), cfg)
    path = tmp_path / "model.npz"
    save_checkpoint(path, result)
    params, config, final_loss = load_checkpoint(path)
    assert config == cfg
    assert final_loss == pytest.approx(result.final_loss)
    for a, b in zip(params.weights, result.params.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(params.skip_weights, result.params.skip_weights):
        np.testing.assert_array_equal(a, b)


def test_assignment_export(tmp_path):
    c = np.array([[0.7, 0.3], [0.1, 0.9]])
    path = tmp_path / "assign.csv"
    write_assignment(path, ["p1#5", "p2#4"], c, threshold=0.2)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,argmax_cluster,memberships,max_prob"
    assert lines[1] == "p1#5,0,0|1,0.700000"
    assert lines[2] == "p2#4,1,1,0.900000"
