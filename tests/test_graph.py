import datetime
import math
import random

import numpy as np
import pytest

from spamrings.graph import (
    PRGraph,
    adjacency_sparse,
    build_edges,
    build_graph,
    build_nodes,
    connected_components,
    node_features,
    node_id_str,
    write_graph,
)
from spamrings.reviews import Review, ReviewTable

D = datetime.date(2014, 1, 1)


def table_from(rows):
    return ReviewTable([Review(u, p, r, D) for (u, p, r) in rows])


def co_reviewers(graph, edge):
    return graph.nodes[edge.u].reviewers & graph.nodes[edge.v].reviewers


def dense_adjacency(graph):
    """Oracle: dense adjacency straight from the node reviewer sets."""
    adj = np.zeros((len(graph.nodes), len(graph.nodes)))
    for e in graph.edges:
        w = 1.0 if graph.weighting == "binary" else float(len(co_reviewers(graph, e)))
        adj[e.u, e.v] = adj[e.v, e.u] = w
    return adj


def adjacency(graph):
    return adjacency_sparse(graph).toarray()


def test_build_nodes_definition():
    table = table_from([("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 3)])
    nodes = build_nodes(table)
    as_dict = {n.key: n.reviewers for n in nodes}
    assert as_dict == {("p1", 5): {"u1", "u2"}, ("p2", 3): {"u1"}}


def test_build_nodes_empty_table():
    assert build_nodes(ReviewTable([])) == []


def test_node_count_bounded_by_five_per_product():
    rng = random.Random(5)
    rows = [(f"u{rng.randrange(50)}", f"p{rng.randrange(12)}", rng.randrange(1, 6)) for _ in range(300)]
    table = ReviewTable([Review(u, p, r, D) for (u, p, r) in {(u, p): (u, p, r) for u, p, r in rows}.values()])
    nodes = build_nodes(table)
    assert len(nodes) <= 5 * len(table.by_product)


def test_build_edges_threshold_and_attribute():
    table = table_from(
        [("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 5), ("u2", "p2", 5), ("u3", "p2", 5)]
    )
    nodes = build_nodes(table)
    edges = build_edges(nodes, min_co_review=1)
    assert len(edges) == 1
    assert edges[0].n_co_reviewers == 2
    assert nodes[edges[0].u].reviewers & nodes[edges[0].v].reviewers == {"u1", "u2"}
    assert build_edges(nodes, min_co_review=3) == []


def test_co_rating_pair_lands_on_edge():
    # Two reviewers give p1 score 4 and p2 score 2: both sit in that edge's set.
    table = table_from(
        [
            ("alice", "p1", 4),
            ("bob", "p1", 4),
            ("alice", "p2", 2),
            ("bob", "p2", 2),
            ("carol", "p1", 4),
        ]
    )
    graph = build_graph(table, min_co_review=2)
    (edge,) = graph.edges
    endpoints = {graph.nodes[edge.u].key, graph.nodes[edge.v].key}
    assert endpoints == {("p1", 4), ("p2", 2)}
    assert co_reviewers(graph, edge) == {"alice", "bob"}
    assert edge.n_co_reviewers == 2


def test_no_edge_within_same_product():
    table = table_from([("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p1", 3)])
    # u1 rated p1 twice at different levels; dedupe normally forbids this,
    # but edges must never join two ratings of the same product anyway.
    nodes = build_nodes(table)
    assert build_edges(nodes, min_co_review=1) == []


def test_adjacency_weighted_and_binary():
    table = table_from(
        [(u, p, 5) for u in ("a", "b", "c", "d") for p in ("p1", "p2")]
    )
    graph = build_graph(table, min_co_review=1)
    adj = adjacency(graph)
    assert adj.shape == (2, 2)
    assert adj[0, 1] == adj[1, 0] == 4.0
    assert adj[0, 0] == adj[1, 1] == 0.0
    binary = build_graph(table, min_co_review=1, weighting="binary")
    assert adjacency(binary)[0, 1] == 1.0


def test_adjacency_edgeless_graph_is_zero():
    table = table_from([("u1", "p1", 5), ("u2", "p2", 4)])
    graph = build_graph(table)
    assert not adjacency(graph).any()


def test_adjacency_binary_triangle_row_sums():
    rows = []
    for a, b in (("p1", "p2"), ("p2", "p3"), ("p1", "p3")):
        u = f"u_{a}_{b}"
        rows += [(u, a, 5), (u, b, 5)]
    table = ReviewTable([Review(u, p, r, D) for u, p, r in rows])
    adj = adjacency(build_graph(table, min_co_review=1, weighting="binary"))
    assert adj.shape == (3, 3)
    assert np.array_equal(adj.sum(axis=1), np.array([2.0, 2.0, 2.0]))


def test_node_features_recipe():
    table = table_from([("u1", "p1", 3)])
    graph = build_graph(table)
    feats = node_features(graph)
    expected = np.array([[0, 0, 1, 0, 0, math.log(2), 0]], dtype=float)
    np.testing.assert_allclose(feats, expected)


def test_identical_nodes_get_identical_features():
    table = table_from([("u1", "p1", 2), ("u2", "p2", 2)])
    graph = build_graph(table)
    feats = node_features(graph)
    np.testing.assert_array_equal(feats[0], feats[1])


def test_one_hot_block_never_all_zero():
    rng = random.Random(9)
    rows = {(f"u{rng.randrange(30)}", f"p{rng.randrange(8)}"): rng.randrange(1, 6) for _ in range(120)}
    table = ReviewTable([Review(u, p, r, D) for (u, p), r in rows.items()])
    feats = node_features(build_graph(table))
    assert (feats[:, :5].sum(axis=1) == 1.0).all()


def test_shuffle_invariance():
    rng = random.Random(13)
    rows = list({(f"u{rng.randrange(20)}", f"p{rng.randrange(6)}"): rng.randrange(1, 6) for _ in range(150)}.items())
    reviews = [Review(u, p, r, D) for (u, p), r in rows]
    shuffled = reviews[:]
    rng.shuffle(shuffled)
    g1 = build_graph(ReviewTable(reviews), min_co_review=1)
    g2 = build_graph(ReviewTable(shuffled), min_co_review=1)
    assert [n.key for n in g1.nodes] == [n.key for n in g2.nodes]
    assert [(e.u, e.v, e.n_co_reviewers) for e in g1.edges] == [
        (e.u, e.v, e.n_co_reviewers) for e in g2.edges
    ]
    np.testing.assert_array_equal(adjacency(g1), adjacency(g2))
    np.testing.assert_array_equal(node_features(g1), node_features(g2))


def test_co_reviewers_subset_of_both_endpoints_and_exact():
    rng = random.Random(21)
    rows = {(f"u{rng.randrange(15)}", f"p{rng.randrange(5)}"): rng.randrange(1, 6) for _ in range(200)}
    table = ReviewTable([Review(u, p, r, D) for (u, p), r in rows.items()])
    graph = build_graph(table, min_co_review=1)
    assert graph.edges, "instance should produce some edges"
    adj = adjacency(graph)
    for e in graph.edges:
        nu, nv = graph.nodes[e.u], graph.nodes[e.v]
        assert e.n_co_reviewers == len(nu.reviewers & nv.reviewers)
        assert adj[e.u, e.v] == e.n_co_reviewers
    bin_adj = adjacency(build_graph(table, min_co_review=1, weighting="binary"))
    assert set(np.unique(bin_adj)) <= {0.0, 1.0}


def test_sparse_adjacency_matches_dense():
    rng = random.Random(31)
    rows = {(f"u{rng.randrange(20)}", f"p{rng.randrange(6)}"): rng.randrange(1, 6) for _ in range(150)}
    table = ReviewTable([Review(u, p, r, D) for (u, p), r in rows.items()])
    for mode in ("binary", "co_review_count"):
        graph = build_graph(table, min_co_review=1, weighting=mode)
        sparse = adjacency_sparse(graph)
        assert sparse.format == "csr"
        np.testing.assert_array_equal(sparse.toarray(), dense_adjacency(graph))


def test_connected_components_of_subset():
    table = table_from(
        [("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 5), ("u2", "p2", 5),
         ("u3", "p3", 4), ("u4", "p3", 4), ("u3", "p4", 4), ("u4", "p4", 4),
         ("u9", "p5", 2)]
    )
    graph = build_graph(table, min_co_review=2)
    comps = connected_components(graph, range(len(graph.nodes)))
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 2, 2]
    # restricting the subset restricts the components
    sub = connected_components(graph, [graph.index[("p1", 5)]])
    assert sub == [{graph.index[("p1", 5)]}]


def test_bad_weighting_mode_rejected():
    with pytest.raises(ValueError):
        PRGraph(nodes=[], edges=[], weighting="huh")
    table = table_from([("u1", "p1", 5)])
    with pytest.raises(ValueError):
        build_graph(table, weighting="huh")


def test_min_co_review_must_be_positive():
    with pytest.raises(ValueError):
        build_edges([], min_co_review=0)


def test_graph_dump_format(tmp_path):
    table = table_from(
        [("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 5), ("u2", "p2", 5)]
    )
    graph = build_graph(table, min_co_review=2)
    edges_path = tmp_path / "edges.tsv"
    nodes_path = tmp_path / "nodes.tsv"
    write_graph(graph, edges_path, nodes_path)
    assert edges_path.read_text() == "p1#5\tp2#5\t2\n"
    assert nodes_path.read_text() == "p1\t5\t2\np2\t5\t2\n"
    assert node_id_str(graph.nodes[0]) == "p1#5"
