import datetime
import math
import random
from itertools import combinations

import pytest

from spamrings.graph import build_graph
from spamrings.indicators import (
    PAIR_BLOCK_ELEMENTS,
    CandidateGroup,
    avg_rating_deviation,
    burstness,
    extract_group,
    group_compactness,
    group_from_table,
    group_indicators,
    neighbor_tightness,
    penalty,
    product_tightness,
    review_tightness,
    write_indicators,
)
from spamrings.reviews import Review, ReviewTable, product_stats

D0 = datetime.date(2014, 1, 1)


def day(offset):
    return D0 + datetime.timedelta(days=offset)


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def make_group(member_products, cluster=-1):
    return CandidateGroup(
        members=frozenset(member_products),
        member_products={m: frozenset(ps) for m, ps in member_products.items()},
        source_cluster=cluster,
    )


# ----------------------------------------------------------------- extraction


def extraction_fixture():
    rows = [
        ("a", "p1", 5),
        ("b", "p1", 5),
        ("a", "p2", 5),
        ("b", "p2", 5),
        ("c", "p2", 5),
        ("a", "p9", 1),  # outside data also feeds member product sets
    ]
    table = ReviewTable([Review(u, p, r, day(i)) for i, (u, p, r) in enumerate(rows)])
    graph = build_graph(table, min_co_review=1)
    cluster = [graph.index[("p1", 5)], graph.index[("p2", 5)]]
    return table, graph, cluster


def test_extract_group_min_support_two():
    table, graph, cluster = extraction_fixture()
    group = extract_group(cluster, graph, table, min_support=2)
    assert group.members == {"a", "b"}
    assert group.member_products["a"] == {"p1", "p2", "p9"}


def test_extract_group_min_support_one():
    table, graph, cluster = extraction_fixture()
    group = extract_group(cluster, graph, table, min_support=1)
    assert group.members == {"a", "b", "c"}


def test_extract_group_disjoint_sets_give_none():
    rows = [("a", "p1", 5), ("b", "p2", 5)]
    table = ReviewTable([Review(u, p, r, D0) for (u, p, r) in rows])
    graph = build_graph(table)
    cluster = list(range(len(graph.nodes)))
    assert extract_group(cluster, graph, table, min_support=2) is None


def test_extract_group_strict_intersection_mode():
    table, graph, cluster = extraction_fixture()
    group = extract_group(cluster, graph, table, min_support=len(cluster))
    assert group.members == {"a", "b"}


def test_candidate_group_validation():
    with pytest.raises(ValueError):
        CandidateGroup(members=frozenset(), member_products={})
    with pytest.raises(ValueError):
        CandidateGroup(members=frozenset({"a"}), member_products={"a": frozenset()})


# ------------------------------------------------------------------- penalty


def test_penalty_examples():
    g = make_group({"a": {"p1"}, "b": {"p1"}})  # |R|+|P| = 3
    assert penalty(g) == pytest.approx(0.5, abs=1e-12)

    g = make_group({f"u{i}": {f"p{i % 5}"} for i in range(20)})  # 20 + 5
    assert penalty(g) == pytest.approx(1.0, abs=1e-9)
    assert 1.0 - penalty(g) < 1e-9

    g = make_group({"a": {"p1"}})  # 1 + 1 - 3 = -1
    assert penalty(g) == pytest.approx(logistic(-1), abs=1e-12)


def test_penalty_strictly_increasing_in_size():
    last = 0.0
    for extra in range(1, 30):
        g = make_group({f"u{i}": {"p1"} for i in range(extra)})
        val = penalty(g)
        assert val > last
        last = val


# ---------------------------------------------------------------- tightness


def test_review_tightness_full_grid():
    g = make_group({"a": {"p1", "p2"}, "b": {"p1", "p2"}})
    assert review_tightness(g) == pytest.approx(logistic(1), abs=1e-12)


def test_review_tightness_sparse_grid():
    g = make_group({f"u{i}": {f"p{i}"} for i in range(10)})
    assert review_tightness(g) == pytest.approx(0.1 * logistic(17), abs=1e-12)


def test_product_tightness_examples():
    assert product_tightness(make_group({"a": {"p1", "p2"}, "b": {"p1", "p2"}})) == 1.0
    assert product_tightness(make_group({"u": {"a", "b"}, "v": {"b", "c"}})) == pytest.approx(1 / 3)
    assert product_tightness(make_group({"u": {"a"}, "v": {"b"}})) == 0.0


def test_neighbor_tightness_examples():
    g = make_group({"u": {"a", "b"}, "v": {"a", "b"}, "w": {"a", "b"}})
    assert neighbor_tightness(g) == pytest.approx(penalty(g), abs=1e-12)

    g = make_group({"u": {"a", "b"}, "v": {"b", "c"}})
    assert neighbor_tightness(g) == pytest.approx((1 / 3) * logistic(2), abs=1e-12)
    assert neighbor_tightness(g) == pytest.approx(0.29359902599262744, abs=1e-12)

    g = make_group({"u": {"a"}, "v": {"b"}, "w": {"c"}})
    assert neighbor_tightness(g) == 0.0


def test_neighbor_tightness_singleton_is_zero():
    assert neighbor_tightness(make_group({"u": {"a"}})) == 0.0


def test_neighbor_tightness_literal_denominator_variant():
    g = make_group({"u": {"a", "b"}, "v": {"b", "c"}})
    literal = neighbor_tightness(g, literal_denominator=True)
    assert literal == pytest.approx(2 * (1 / 3) / 2 * logistic(2), abs=1e-12)


# ------------------------------------------------- pair-loop oracle for nt


def _jaccard(a, b):
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _neighbor_tightness_pairs(group, literal_denominator=False):
    """One Jaccard per member pair, summed left to right.

    An explicit loop, not sum(): from Python 3.12 sum() compensates float
    addition, while neighbor_tightness adds in plain sequence.
    """
    members = sorted(group.members)
    if len(members) < 2:
        return 0.0
    total = 0.0
    for a, b in combinations(members, 2):
        total += _jaccard(group.member_products[a], group.member_products[b])
    if literal_denominator:
        mean = 2.0 * total / len(members)
    else:
        mean = total / (len(members) * (len(members) - 1) / 2)
    return mean * penalty(group)


def random_member_group(rng, size, n_products=40, max_products=6):
    return make_group(
        {
            f"u{i:05d}": {f"p{rng.randrange(n_products)}" for _ in range(rng.randint(1, max_products))}
            for i in range(size)
        }
    )


def assert_matches_pair_loop(group):
    for literal in (False, True):
        assert neighbor_tightness(group, literal_denominator=literal) == _neighbor_tightness_pairs(
            group, literal_denominator=literal
        )


def test_neighbor_tightness_matches_pair_loop_on_random_groups():
    rng = random.Random(41)
    for _ in range(300):
        assert_matches_pair_loop(random_member_group(rng, rng.randint(1, 30)))


def test_neighbor_tightness_matches_pair_loop_on_edge_cases():
    assert_matches_pair_loop(make_group({"u": {"a", "b"}}))  # singleton
    assert_matches_pair_loop(make_group({"u": {"a"}, "v": {"b"}}))  # disjoint pair
    assert_matches_pair_loop(make_group({f"u{i}": {f"p{i}"} for i in range(12)}))
    assert_matches_pair_loop(make_group({f"u{i}": {"a", "b"} for i in range(12)}))


@pytest.mark.parametrize("around", [math.isqrt(PAIR_BLOCK_ELEMENTS), 512])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_neighbor_tightness_matches_pair_loop_at_block_boundaries(around, offset):
    # sqrt(budget) is the first size that needs a second row block; at 512
    # the blocks tile the rows exactly, one member less or more leaves a
    # short last block
    rng = random.Random(around + offset)
    assert_matches_pair_loop(random_member_group(rng, around + offset))


def test_neighbor_tightness_matches_pair_loop_on_large_group():
    rng = random.Random(2024)
    group = random_member_group(rng, 2100, n_products=300, max_products=10)
    assert neighbor_tightness(group) == _neighbor_tightness_pairs(group)


def test_compactness_examples():
    g = make_group({"u": {"a"}, "v": {"b"}})
    assert group_compactness(g) == 0.0

    rt = logistic(1)
    pt = 1 / 3
    nt = (1 / 3) * logistic(2)
    assert rt * pt * nt == pytest.approx(0.07154602887644136, abs=1e-12)

    tight = make_group({f"u{i}": {"p1", "p2", "p3"} for i in range(30)})
    assert group_compactness(tight) == pytest.approx(penalty(tight) ** 2, abs=1e-9)


# ------------------------------------------------------------- individual


def test_avg_rating_deviation_examples():
    reviews = [
        Review("bal", "p1", 3, day(0)),
        Review("x1", "p1", 1, day(1)),
        Review("x2", "p1", 5, day(2)),
        Review("low", "p2", 1, day(0)),
        Review("y1", "p2", 5, day(1)),  # avg pulled to 3, |1-3|=2
        Review("bal", "p2", 3, day(3)),  # avg(p2)=3 including own
        Review("mix", "p3", 5, day(0)),  # alone on p3: avg 5, dev 0
        Review("mix", "p4", 1, day(1)),
        Review("z", "p4", 5, day(2)),  # avg 3, dev 2
    ]
    table = ReviewTable(reviews)
    stats = product_stats(table)
    assert avg_rating_deviation("bal", table, stats) == pytest.approx(0.0)
    single = ReviewTable(
        [Review("solo", "p", 1, day(0))]
        + [Review(f"o{i}", "p", 5, day(i)) for i in range(1, 1000)]
    )
    lone_stats = product_stats(single)
    # avg -> 5 as crowd grows; solo deviation -> 4/4
    assert avg_rating_deviation("solo", single, lone_stats) == pytest.approx(
        (5 - 1 - 4 / 1000) / 4, abs=1e-12
    )
    assert avg_rating_deviation("mix", table, stats) == pytest.approx((0 + 2) / 2 / 4)


def test_avg_rating_deviation_unknown_reviewer():
    table = ReviewTable([Review("a", "p", 3, day(0))])
    with pytest.raises(KeyError):
        avg_rating_deviation("ghost", table, product_stats(table))


def test_burstness_examples():
    table = ReviewTable(
        [
            Review("one_day", "p1", 5, day(10)),
            Review("one_day", "p2", 5, day(10)),
            Review("wide", "p1", 5, day(0)),
            Review("wide", "p2", 5, day(45)),
            Review("half", "p1", 5, day(0)),
            Review("half", "p2", 5, day(15)),
            Review("single", "p3", 4, day(7)),
        ]
    )
    assert burstness("one_day", table) == 1.0
    assert burstness("wide", table) == 0.0
    assert burstness("half", table) == 0.5
    assert burstness("single", table) == 1.0


def test_burstness_boundary_span_equals_tau():
    table = ReviewTable(
        [Review("edge", "p1", 5, day(0)), Review("edge", "p2", 5, day(30))]
    )
    assert burstness("edge", table, tau_days=30) == 0.0


@pytest.mark.parametrize("tau", [0, -5])
def test_burstness_rejects_tau_below_one(tau):
    table = ReviewTable([Review("one_day", "p1", 5, day(3)), Review("one_day", "p2", 5, day(3))])
    with pytest.raises(ValueError, match="tau_days"):
        burstness("one_day", table, tau_days=tau)


# ------------------------------------------------------------- property suite


def random_table(rng, n_reviewers=12, n_products=8, n_reviews=60):
    seen = {}
    for _ in range(n_reviews):
        u = f"u{rng.randrange(n_reviewers)}"
        p = f"p{rng.randrange(n_products)}"
        seen[(u, p)] = Review(u, p, rng.randrange(1, 6), day(rng.randrange(120)))
    return ReviewTable(list(seen.values()))


def test_indicators_bounded_on_random_groups():
    rng = random.Random(99)
    for trial in range(1000):
        table = random_table(rng)
        reviewers = table.reviewers()
        k = rng.randrange(1, min(6, len(reviewers)) + 1)
        members = rng.sample(reviewers, k)
        group = group_from_table(members, table)
        stats = product_stats(table)
        vec = group_indicators(group, table, stats)
        for value in (
            vec.review_tightness,
            vec.product_tightness,
            vec.neighbor_tightness,
            vec.compactness,
            vec.avg_rating_deviation,
            vec.avg_burstness,
        ):
            assert 0.0 <= value <= 1.0, (trial, vec)


def test_compactness_zero_when_any_factor_zero():
    rng = random.Random(5)
    for _ in range(200):
        table = random_table(rng)
        members = rng.sample(table.reviewers(), min(4, len(table.reviewers())))
        group = group_from_table(members, table)
        if product_tightness(group) == 0.0 or neighbor_tightness(group) == 0.0:
            assert group_compactness(group) == 0.0


def test_pairwise_oracle_for_pt_and_nt():
    rng = random.Random(17)
    for _ in range(100):
        table = random_table(rng)
        members = rng.sample(table.reviewers(), min(5, len(table.reviewers())))
        group = group_from_table(members, table)
        sets = [group.member_products[m] for m in sorted(members)]
        inter = set(sets[0])
        union = set()
        for s in sets:
            inter &= s
            union |= s
        assert product_tightness(group) == len(inter) / len(union)
        if len(members) >= 2:
            js = []
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    js.append(len(sets[i] & sets[j]) / len(sets[i] | sets[j]))
            expected = sum(js) / len(js) * penalty(group)
            assert neighbor_tightness(group) == pytest.approx(expected, abs=1e-12)


def test_indicators_invariant_under_renaming():
    rng = random.Random(23)
    table = random_table(rng)
    members = rng.sample(table.reviewers(), 4)
    stats = product_stats(table)
    base = group_indicators(group_from_table(members, table), table, stats)

    renamed_reviews = [
        Review("R_" + r.reviewer_id, "P_" + r.product_id, r.rating, r.date, r.label)
        for r in table.reviews
    ]
    renamed = ReviewTable(renamed_reviews)
    renamed_members = ["R_" + m for m in members]
    vec = group_indicators(
        group_from_table(renamed_members, renamed), renamed, product_stats(renamed)
    )
    assert vec == base


def test_indicator_dump_format(tmp_path):
    table = ReviewTable(
        [
            Review("a", "p1", 5, day(0)),
            Review("b", "p1", 5, day(1)),
            Review("a", "p2", 5, day(2)),
            Review("b", "p2", 5, day(3)),
        ]
    )
    group = group_from_table(["a", "b"], table, source_cluster=7)
    group.group_id = 3
    vec = group_indicators(group, table, product_stats(table))
    path = tmp_path / "indicators.tsv"
    write_indicators(path, [(group, vec)])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("group_id\tcluster\tsize\tn_products")
    fields = lines[1].split("\t")
    assert fields[:4] == ["3", "7", "2", "2"]
    assert float(fields[4]) == pytest.approx(vec.review_tightness, abs=1e-6)
