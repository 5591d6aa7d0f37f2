"""The sparse production modularity, checked against the dense oracles in oracles.py."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    brute_force_best_partition,
    degree_vector,
    modularity_coo,
    modularity_matrix,
    one_hot,
)
from oracles import modularity as dense_modularity
from spamrings.graph import adjacency_sparse, build_graph
from spamrings.modularity import modularity
from spamrings.reviews import review_columns
from spamrings.synth import SynthConfig, generate


def naive_modularity(adj, labels):
    """Straight double-loop transcription of the pairwise definition."""
    adj = np.asarray(adj, dtype=float)
    d = adj.sum(axis=1)
    two_m = d.sum()
    q = 0.0
    n = adj.shape[0]
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += adj[i, j] - d[i] * d[j] / two_m
    return q / two_m


def trace_modularity(adj, labels):
    b = modularity_matrix(adj)
    c = one_hot(labels, int(max(labels)) + 1)
    two_m = adj.sum()
    return np.trace(c.T @ b @ c) / two_m


def triangle_pair():
    adj = np.zeros((6, 6))
    for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        adj[i, j] = adj[j, i] = 1.0
    return adj


def random_graph(rng, n, weighted):
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i, j] = adj[j, i] = rng.integers(1, 5) if weighted else 1.0
    return adj


def test_degree_vector_hand_counts():
    deg = degree_vector(triangle_pair())
    np.testing.assert_array_equal(deg.d, np.full(6, 2.0))
    assert deg.total_weight == 12.0

    single = np.array([[0.0, 4.0], [4.0, 0.0]])
    deg = degree_vector(single)
    np.testing.assert_array_equal(deg.d, [4.0, 4.0])
    assert deg.total_weight == 8.0

    assert degree_vector(np.zeros((3, 3))).is_edgeless


def test_modularity_rejects_edgeless():
    with pytest.raises(ValueError):
        modularity(np.zeros((3, 3)), [0, 1, 2])
    with pytest.raises(ValueError):
        modularity(sp.csr_array((3, 3)), [0, 1, 2])
    with pytest.raises(ValueError):
        dense_modularity(np.zeros((3, 3)), [0, 1, 2])
    with pytest.raises(ValueError):
        modularity_matrix(np.zeros((2, 2)))


def test_modularity_rejects_label_count_mismatch():
    with pytest.raises(ValueError):
        modularity(triangle_pair(), [0, 0, 1])


def test_single_cluster_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        adj = random_graph(rng, 7, weighted=True)
        if adj.sum() == 0:
            continue
        assert modularity(adj, np.zeros(7, dtype=int)) == pytest.approx(0.0, abs=1e-14)


def test_two_triangles_give_half():
    q = modularity(triangle_pair(), [0, 0, 0, 1, 1, 1])
    assert q == pytest.approx(0.5, abs=1e-14)


def test_matches_naive_loop_and_trace_form():
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(120):
        n = int(rng.integers(2, 9))
        adj = random_graph(rng, n, weighted=bool(trial % 2))
        if adj.sum() == 0:
            continue
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        q = modularity(adj, labels)
        assert modularity(sp.csr_array(adj), labels) == q
        assert q == pytest.approx(dense_modularity(adj, labels), abs=1e-12)
        assert q == pytest.approx(naive_modularity(adj, labels), abs=1e-12)
        assert q == pytest.approx(trace_modularity(adj, labels), abs=1e-10)
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("weighting", ["co_review_count", "binary"])
def test_csr_rows_bit_equal_to_coo_oracle(weighting):
    """Q summed from the CSR rows has the bits of the COO sum it replaced, on
    the int32 counts, their float64 cast and their dense form."""
    adj = adjacency_sparse(build_graph(review_columns(generate(SynthConfig(seed=0))[0])))
    if weighting == "binary":  # int32 ones on the counts' index arrays
        adj = sp.csr_array((np.ones_like(adj.data), adj.indices, adj.indptr), adj.shape)
    assert adj.dtype == np.int32 and adj.nnz > 500
    rng = np.random.default_rng(6)
    n = adj.shape[0]
    for labels in (rng.integers(0, 3, size=n), rng.integers(0, 50, size=n), np.arange(n)):
        want = modularity_coo(adj, labels)
        for given in (adj, adj.astype(np.float64), adj.toarray()):
            assert modularity(given, labels) == modularity_coo(given, labels) == want
        assert want == pytest.approx(dense_modularity(adj.toarray(), labels), abs=1e-12)


def test_modularity_matrix_single_edge():
    b = modularity_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(b, np.array([[-0.5, 0.5], [0.5, -0.5]]))


def test_modularity_matrix_row_sums_zero_and_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        adj = random_graph(rng, 8, weighted=True)
        if adj.sum() == 0:
            continue
        b = modularity_matrix(adj)
        np.testing.assert_allclose(b.sum(axis=1), np.zeros(8), atol=1e-10)
        np.testing.assert_allclose(b, b.T)
        assert abs(b.sum()) < 1e-9


def test_relabeling_invariance():
    rng = np.random.default_rng(2)
    adj = random_graph(rng, 8, weighted=True)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    permuted = np.array([2, 0, 1, 2, 0, 1, 2, 0])  # same partition, renamed
    assert modularity(adj, labels) == pytest.approx(modularity(adj, permuted), abs=1e-14)


def test_uniform_scaling_invariance():
    rng = np.random.default_rng(3)
    adj = random_graph(rng, 7, weighted=True)
    labels = rng.integers(0, 3, size=7)
    q1 = modularity(adj, labels)
    q2 = modularity(3.5 * adj, labels)
    assert q1 == pytest.approx(q2, abs=1e-12)


def test_q_at_most_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        adj = random_graph(rng, n, weighted=True)
        if adj.sum() == 0:
            continue
        labels = rng.integers(0, n, size=n)
        assert modularity(adj, labels) <= 1.0 + 1e-12


def test_brute_force_two_triangles():
    labels, q = brute_force_best_partition(triangle_pair(), 2)
    assert q == pytest.approx(0.5, abs=0.0)
    assert len({labels[0], labels[1], labels[2]}) == 1
    assert len({labels[3], labels[4], labels[5]}) == 1
    assert labels[0] != labels[3]


def test_brute_force_complete_graph_prefers_no_split():
    k4 = np.ones((4, 4)) - np.eye(4)
    labels, q = brute_force_best_partition(k4, 2)
    assert q == pytest.approx(0.0, abs=1e-14)
    assert len(np.unique(labels)) == 1


def test_brute_force_single_node():
    labels, q = brute_force_best_partition(np.zeros((1, 1)), 3)
    assert list(labels) == [0]
    assert q == 0.0


def test_brute_force_never_below_exhaustive_sample():
    rng = np.random.default_rng(5)
    for _ in range(10):
        adj = random_graph(rng, 6, weighted=False)
        if adj.sum() == 0:
            continue
        _, q_star = brute_force_best_partition(adj, 3)
        for _ in range(30):
            labels = rng.integers(0, 3, size=6)
            assert modularity(adj, labels) <= q_star + 1e-12


def test_brute_force_refuses_large_graphs():
    with pytest.raises(ValueError):
        brute_force_best_partition(np.zeros((13, 13)), 2)
