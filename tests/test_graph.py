import csv
import datetime
import math
import random
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    build_edges_pair_count,
    build_nodes,
    co_review_matrix_masked,
    connected_components_edge_scan,
    graph_from_nodes,
    heavy_tailed_table,
    node_keys,
    reviewer_incidence,
)
from spamrings.graph import (
    PRGraph,
    PRNode,
    adjacency_sparse,
    build_graph,
    co_review_matrix,
    node_features,
    node_id_str,
    write_graph,
)
from spamrings.indicators import ScoringIndex, extract_candidate_groups
from spamrings.reviews import Review, ReviewTable, dedupe, review_columns
from spamrings.synth import SynthConfig, generate

D = datetime.date(2014, 1, 1)


def table_from(rows):
    return ReviewTable([Review(u, p, r, D) for (u, p, r) in rows])


def co_reviewers(graph, edge):
    return graph.nodes[edge.u].reviewers & graph.nodes[edge.v].reviewers


def dense_adjacency(graph):
    """Oracle: dense adjacency straight from the node reviewer sets."""
    adj = np.zeros((len(graph.nodes), len(graph.nodes)))
    for e in graph.edges:
        adj[e.u, e.v] = adj[e.v, e.u] = float(len(co_reviewers(graph, e)))
    return adj


def adjacency(graph):
    return adjacency_sparse(graph).toarray()


def key(node):
    return (node.product_id, node.rating)


def node_index(graph):
    return {key(node): i for i, node in enumerate(graph.nodes)}


def test_build_nodes_definition():
    table = table_from([("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 3)])
    nodes = build_nodes(table)
    as_dict = {key(n): n.reviewers for n in nodes}
    assert as_dict == {("p1", 5): {"u1", "u2"}, ("p2", 3): {"u1"}}


def test_build_nodes_empty_table():
    assert build_nodes(ReviewTable([])) == []


def test_node_count_bounded_by_five_per_product():
    rng = random.Random(5)
    rows = [(f"u{rng.randrange(50)}", f"p{rng.randrange(12)}", rng.randrange(1, 6)) for _ in range(300)]
    table = ReviewTable([Review(u, p, r, D) for (u, p, r) in {(u, p): (u, p, r) for u, p, r in rows}.values()])
    nodes = build_nodes(table)
    assert len(nodes) <= 5 * len({r.product_id for r in table.reviews})


def test_build_edges_threshold_and_attribute():
    table = table_from(
        [("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 5), ("u2", "p2", 5), ("u3", "p2", 5)]
    )
    nodes = build_nodes(table)
    edges = graph_from_nodes(nodes, min_co_review=1).edges
    assert len(edges) == 1
    assert edges[0].n_co_reviewers == 2
    assert nodes[edges[0].u].reviewers & nodes[edges[0].v].reviewers == {"u1", "u2"}
    assert graph_from_nodes(nodes, min_co_review=3).co_review.nnz == 0


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
    graph = build_graph(review_columns(table), min_co_review=2)
    (edge,) = graph.edges
    endpoints = {key(graph.nodes[edge.u]), key(graph.nodes[edge.v])}
    assert endpoints == {("p1", 4), ("p2", 2)}
    assert co_reviewers(graph, edge) == {"alice", "bob"}
    assert edge.n_co_reviewers == 2


def test_co_review_matrix_matches_pair_count_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n_users, n_products = rng.randint(1, 40), rng.randint(1, 8)
        rows = {
            (f"u{rng.randrange(n_users)}", f"p{rng.randrange(n_products)}"): rng.randrange(1, 6)
            for _ in range(rng.randint(0, 150))
        }
        nodes = build_nodes(ReviewTable([Review(u, p, r, D) for (u, p), r in rows.items()]))
        for min_co_review in (1, 2, 3):
            graph = graph_from_nodes(nodes, min_co_review)
            matrix = graph.co_review
            assert matrix.has_canonical_format
            assert (matrix != matrix.T).nnz == 0
            got = [(e.u, e.v, e.n_co_reviewers) for e in graph.edges]
            assert got == build_edges_pair_count(nodes, min_co_review)
            assert matrix.nnz == 2 * len(got)


def test_graph_keeps_the_incidence_its_counts_come_from():
    rng = random.Random(29)
    for _ in range(20):
        table = dedupe(ReviewTable(
            Review(f"u{rng.randrange(30)}", f"p{rng.randrange(6)}", rng.randrange(1, 6), D)
            for _ in range(rng.randint(1, 120))
        ))
        graph = build_graph(review_columns(table), min_co_review=1)
        incidence = graph.incidence
        reviewers = sorted({r.reviewer_id for r in table.reviews})  # the row order
        assert incidence.shape == (len(reviewers), len(graph.nodes))
        assert graph.reviewers == reviewers
        for i, node in enumerate(graph.nodes):
            column = incidence[:, [i]].tocoo()
            assert set(column.data.tolist()) <= {1}
            assert {reviewers[r] for r in column.coords[0].tolist()} == node.reviewers
        keys = node_keys(graph.nodes, graph.product_ids)
        assert np.array_equal(keys, graph.node_keys)
        expected = co_review_matrix(incidence, min_co_review=1)
        assert (graph.co_review != expected).nnz == 0
        assert (reviewer_incidence(graph.nodes, reviewers) != incidence).nnz == 0


def incidence_columns(graph):
    """Each node's (product, rating) and the set of reviewer ids in its column of B."""
    bounds, rows = graph.incidence.indptr.tolist(), graph.incidence.indices.tolist()
    return [
        (key, {graph.reviewers[r] for r in rows[a:b]})
        for key, a, b in zip(graph.keys, bounds, bounds[1:])
    ]


def test_incidence_columns_equal_oracle_node_sets():
    for seed in range(3):
        table, _ = generate(SynthConfig(seed=seed))
        graph = build_graph(review_columns(table))
        nodes = build_nodes(table)
        assert incidence_columns(graph) == [(key(n), n.reviewers) for n in nodes]
        assert graph.incidence.has_canonical_format
        assert graph.nodes == nodes  # the lazy view rebuilds the same sets


def test_co_review_matrix_bit_equal_to_masked_oracle():
    """On deduped tables the diagonal is all the product mask dropped, and
    ``setdiag`` zeroes it in place: it never changes the sparsity structure."""
    tables = [(f"synth seed {s}", dedupe(generate(SynthConfig(seed=s))[0])) for s in range(3)]
    tables.append(("heavy tailed", heavy_tailed_table(2_000, 923, cap=400)))
    for name, table in tables:
        graph = build_graph(review_columns(table), min_co_review=1)
        for min_co_review in (1, 2, 3):
            want = co_review_matrix_masked(graph.node_keys, graph.incidence, min_co_review)
            with warnings.catch_warnings():
                warnings.simplefilter("error", sp.SparseEfficiencyWarning)
                got = co_review_matrix(graph.incidence, min_co_review)
            assert want.nnz > 0, name
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)


REPEATS = {  # the rows, and the pair the error names
    "repeated triple": (
        [("u1", "p1", 5), ("u2", "p1", 5), ("u2", "p2", 4), ("u1", "p1", 5)],
        "reviewer 'u1' reviewed product 'p1' more than once",
    ),
    "two ratings": (
        [("u1", "p1", 5), ("u2", "p1", 5), ("u2", "p2", 4), ("u2", "p1", 3)],
        "reviewer 'u2' reviewed product 'p1' more than once",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATS))
def test_table_with_a_repeated_reviewer_product_pair_is_rejected(case):
    """One review per (reviewer, product) is a precondition of the graph and
    the scoring index, which read a table's columns: a table that breaks it
    has none, and the error names the pair."""
    rows, named = REPEATS[case]
    table = table_from(rows)
    with pytest.raises(ValueError) as raised:
        review_columns(table)
    assert named in str(raised.value), str(raised.value)
    columns = review_columns(dedupe(table))  # the deduped table builds
    build_graph(columns, min_co_review=1)
    ScoringIndex(columns)


def test_adjacency_is_the_co_review_counts():
    table = table_from(
        [(u, p, 5) for u in ("a", "b", "c", "d") for p in ("p1", "p2")]
    )
    graph = build_graph(review_columns(table), min_co_review=1)
    adj = adjacency(graph)
    assert adj.shape == (2, 2)
    assert adj[0, 1] == adj[1, 0] == 4.0
    assert adj[0, 0] == adj[1, 1] == 0.0


def test_adjacency_edgeless_graph_is_zero():
    table = table_from([("u1", "p1", 5), ("u2", "p2", 4)])
    graph = build_graph(review_columns(table))
    assert not adjacency(graph).any()


def test_node_features_recipe():
    table = table_from([("u1", "p1", 3)])
    graph = build_graph(review_columns(table))
    feats = node_features(graph)
    expected = np.array([[0, 0, 1, 0, 0, math.log(2), 0]], dtype=float)
    np.testing.assert_allclose(feats, expected)


def test_identical_nodes_get_identical_features():
    table = table_from([("u1", "p1", 2), ("u2", "p2", 2)])
    graph = build_graph(review_columns(table))
    feats = node_features(graph)
    np.testing.assert_array_equal(feats[0], feats[1])


def test_one_hot_block_never_all_zero():
    rng = random.Random(9)
    rows = {(f"u{rng.randrange(30)}", f"p{rng.randrange(8)}"): rng.randrange(1, 6) for _ in range(120)}
    table = ReviewTable([Review(u, p, r, D) for (u, p), r in rows.items()])
    feats = node_features(build_graph(review_columns(table)))
    assert (feats[:, :5].sum(axis=1) == 1.0).all()


def test_shuffle_invariance():
    rng = random.Random(13)
    rows = list({(f"u{rng.randrange(20)}", f"p{rng.randrange(6)}"): rng.randrange(1, 6) for _ in range(150)}.items())
    reviews = [Review(u, p, r, D) for (u, p), r in rows]
    shuffled = reviews[:]
    rng.shuffle(shuffled)
    g1 = build_graph(review_columns(ReviewTable(reviews)), min_co_review=1)
    g2 = build_graph(review_columns(ReviewTable(shuffled)), min_co_review=1)
    assert [key(n) for n in g1.nodes] == [key(n) for n in g2.nodes]
    assert [(e.u, e.v, e.n_co_reviewers) for e in g1.edges] == [
        (e.u, e.v, e.n_co_reviewers) for e in g2.edges
    ]
    np.testing.assert_array_equal(adjacency(g1), adjacency(g2))
    np.testing.assert_array_equal(node_features(g1), node_features(g2))


def test_co_reviewers_subset_of_both_endpoints_and_exact():
    rng = random.Random(21)
    rows = {(f"u{rng.randrange(15)}", f"p{rng.randrange(5)}"): rng.randrange(1, 6) for _ in range(200)}
    table = ReviewTable([Review(u, p, r, D) for (u, p), r in rows.items()])
    graph = build_graph(review_columns(table), min_co_review=1)
    assert graph.edges, "instance should produce some edges"
    adj = adjacency(graph)
    for e in graph.edges:
        nu, nv = graph.nodes[e.u], graph.nodes[e.v]
        assert e.n_co_reviewers == len(nu.reviewers & nv.reviewers)
        assert adj[e.u, e.v] == e.n_co_reviewers


def test_sparse_adjacency_matches_dense():
    rng = random.Random(31)
    rows = {(f"u{rng.randrange(20)}", f"p{rng.randrange(6)}"): rng.randrange(1, 6) for _ in range(150)}
    table = ReviewTable([Review(u, p, r, D) for (u, p), r in rows.items()])
    graph = build_graph(review_columns(table), min_co_review=1)
    sparse = adjacency_sparse(graph)
    assert sparse.format == "csr"
    np.testing.assert_array_equal(sparse.toarray(), dense_adjacency(graph))


def test_extraction_splits_a_cluster_into_its_components():
    table = table_from(
        [("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 5), ("u2", "p2", 5),
         ("u3", "p3", 4), ("u4", "p3", 4), ("u3", "p4", 4), ("u4", "p4", 4),
         ("u9", "p5", 2)]
    )
    columns = review_columns(table)
    graph = build_graph(columns, min_co_review=2)
    index = ScoringIndex(columns)
    one_cluster = np.ones((len(graph.nodes), 1), dtype=bool)
    groups = extract_candidate_groups(graph, one_cluster, index, min_support=1)
    assert [g.members for g in groups] == [{"u1", "u2"}, {"u3", "u4"}, {"u9"}]
    # restricting the cluster restricts the components: p1#5 alone in
    # cluster 1 leaves p2#5 alone in cluster 0, neither with support 2
    labels = [int(key(node) == ("p1", 5)) for node in graph.nodes]
    groups = extract_candidate_groups(graph, np.eye(2, dtype=bool)[labels], index, min_support=2)
    assert [(g.members, g.source_cluster) for g in groups] == [({"u3", "u4"}, 0)]


def test_extraction_pieces_match_edge_scan_oracle():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(2, 40)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))}
        reviewers = [{f"u{i}"} for i in range(n)]
        for u, v in pairs:  # two shared reviewers per pair: an edge at min_co_review=2
            for r in (f"r{u}_{v}a", f"r{u}_{v}b"):
                reviewers[u].add(r)
                reviewers[v].add(r)
        nodes = [PRNode(f"p{i}", 5, frozenset(reviewers[i])) for i in range(n)]
        graph = graph_from_nodes(nodes)
        assert [(e.u, e.v) for e in graph.edges] == sorted(pairs)
        table = ReviewTable([Review(r, node.product_id, 5, D) for node in nodes for r in node.reviewers])
        index = ScoringIndex(review_columns(table))
        for subset in (range(n), rng.sample(range(n), rng.randint(0, n))):
            inside = np.isin(np.arange(n), list(subset))
            mask = np.stack([~inside, inside], axis=1)  # cluster 1 is the subset
            groups = extract_candidate_groups(graph, mask, index, min_support=1)
            # node i's own reviewer u<i> names it in the group of its piece
            got = [{int(m[1:]) for m in g.members if m[0] == "u"} for g in groups]
            outside, within = (
                connected_components_edge_scan(graph, np.flatnonzero(c).tolist()) for c in mask.T
            )
            assert got == outside + within
            assert [g.source_cluster for g in groups] == [0] * len(outside) + [1] * len(within)


def test_min_co_review_must_be_positive():
    with pytest.raises(ValueError):
        co_review_matrix(reviewer_incidence([], []), min_co_review=0)


def test_graph_dump_format(tmp_path):
    table = table_from(
        [("u1", "p1", 5), ("u2", "p1", 5), ("u1", "p2", 5), ("u2", "p2", 5)]
    )
    graph = build_graph(review_columns(table), min_co_review=2)
    edges_path = tmp_path / "edges.tsv"
    nodes_path = tmp_path / "nodes.tsv"
    write_graph(graph, edges_path, nodes_path)
    assert edges_path.read_text() == "p1#5\tp2#5\t2\n"
    assert nodes_path.read_text() == "p1\t5\t2\np2\t5\t2\n"
    assert node_id_str(graph.nodes[0]) == "p1#5"


@pytest.mark.parametrize("product", ["p\t1", 'p"1', "p\n1", "p\r1"])
def test_graph_dump_quotes_ids_holding_a_tab(tmp_path, product):
    """An id holding the delimiter, a quote, a line feed or a carriage return reads back whole."""
    table = table_from([("u1", product, 5), ("u2", product, 5), ("u1", "p2", 5), ("u2", "p2", 5)])
    graph = build_graph(review_columns(table), min_co_review=2)
    edges_path, nodes_path = tmp_path / "edges.tsv", tmp_path / "nodes.tsv"
    write_graph(graph, edges_path, nodes_path)
    with open(edges_path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh, delimiter="\t")) == [[f"{product}#5", "p2#5", "2"]]
    with open(nodes_path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh, delimiter="\t")) == [[product, "5", "2"], ["p2", "5", "2"]]


def test_graph_dump_writes_counts_as_integers(tmp_path):
    """A count of a million or more is written in full, not rounded by a float format."""
    incidence = sp.csc_array(np.ones((2, 2), dtype=np.int32))
    counts = sp.csr_array(
        (np.array([1_234_567, 1_234_567], dtype=np.int32), np.array([1, 0]), np.array([0, 1, 2])),
        shape=(2, 2),
    )
    keys = np.array([4, 9])  # p1 and p2 rated 5
    edges_path, nodes_path = tmp_path / "edges.tsv", tmp_path / "nodes.tsv"
    write_graph(PRGraph(["p1", "p2"], keys, ["u1", "u2"], incidence, counts), edges_path, nodes_path)
    assert edges_path.read_text() == "p1#5\tp2#5\t1234567\n"
    assert nodes_path.read_text() == "p1\t5\t2\np2\t5\t2\n"
