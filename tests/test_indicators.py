import datetime
import math
import random
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

import oracles
from spamrings.graph import build_graph
from spamrings.indicators import (
    PAIR_BLOCK_ELEMENTS,
    CandidateGroup,
    ReviewerIndex,
    ScoringIndex,
    extract_groups,
    group_indicators,
    neighbor_tightness,
    penalty,
    product_tightness,
    review_tightness,
    write_indicators,
)
from spamrings.reviews import (
    LABEL_FAKE,
    LABEL_GENUINE,
    LABEL_UNKNOWN,
    Review,
    ReviewTable,
    review_columns,
)
from spamrings.scoring import group_precision

D0 = datetime.date(2014, 1, 1)


def day(offset):
    return D0 + datetime.timedelta(days=offset)


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def compactness(group):
    return group_indicators(group).compactness


def table_of(member_products):
    """One 5-star review per member and product."""
    return ReviewTable(
        [Review(m, p, 5, D0) for m in sorted(member_products) for p in sorted(member_products[m])]
    )


def index_of(reviews):
    """The scoring index of a table of these reviews."""
    return ScoringIndex(review_columns(ReviewTable(reviews)))


def make_group(member_products, cluster=-1):
    """The group of every member of a {member: product set} table."""
    index = ScoringIndex(review_columns(table_of(member_products)))
    return index.group(member_products, source_cluster=cluster)


def products_of(index, reviewer):
    return {index.product_ids[j] for j in index.products[index.rows([reviewer])].indices}


def value_of(index, values, reviewer):
    (row,) = index.rows([reviewer])
    return values[row]


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
    columns = review_columns(table)
    graph = build_graph(columns, min_co_review=1)
    node = {(node.product_id, node.rating): i for i, node in enumerate(graph.nodes)}
    cluster = [node[("p1", 5)], node[("p2", 5)]]
    return ScoringIndex(columns), graph, cluster


def test_extract_group_min_support_two():
    index, graph, cluster = extraction_fixture()
    (group,) = extract_groups([cluster], graph, index, min_support=2)
    assert group.members == {"a", "b"}
    assert products_of(index, "a") == {"p1", "p2", "p9"}
    assert group.n_products == 3


def test_extract_group_min_support_one():
    index, graph, cluster = extraction_fixture()
    (group,) = extract_groups([cluster], graph, index, min_support=1)
    assert group.members == {"a", "b", "c"}


def test_extract_group_disjoint_sets_give_none():
    rows = [("a", "p1", 5), ("b", "p2", 5)]
    table = ReviewTable([Review(u, p, r, D0) for (u, p, r) in rows])
    columns = review_columns(table)
    graph = build_graph(columns)
    cluster = list(range(len(graph.nodes)))
    assert extract_groups([cluster], graph, ScoringIndex(columns), min_support=2) == [None]


def test_extract_group_strict_intersection_mode():
    index, graph, cluster = extraction_fixture()
    (group,) = extract_groups([cluster], graph, index, min_support=len(cluster))
    assert group.members == {"a", "b"}


def test_extract_groups_refuses_an_index_of_other_reviewers():
    _, graph, cluster = extraction_fixture()
    other = ScoringIndex(review_columns(table_of({"x": {"p1"}, "y": {"p2"}, "z": {"p9"}})))
    assert len(other.reviewers) == graph.incidence.shape[0]  # a count check would pass
    with pytest.raises(ValueError, match="different tables"):
        extract_groups([cluster], graph, other)


def test_candidate_group_validation():
    index = ScoringIndex(review_columns(table_of({"a": {"p1"}, "b": {"p1"}})))
    with pytest.raises(ValueError):
        CandidateGroup(index, np.array([], dtype=np.intp))
    with pytest.raises(ValueError):
        CandidateGroup(index, np.array([1, 0]))
    with pytest.raises(ValueError):
        CandidateGroup(index, np.array([1, 1]))
    with pytest.raises(ValueError, match="must have members"):
        index.group([])
    with pytest.raises(ValueError, match="'ghost' has no reviewed product"):
        index.group(["a", "ghost"])


def test_reviewer_rows_bisect_the_sorted_ids():
    ids = ["b", "ba", "d", "f", "f0", "é"]
    index = ReviewerIndex(review_columns(table_of({r: {"p"} for r in reversed(ids)})))
    assert index.reviewers == ids
    # unknown names before the first id, between two ids (a prefix and an
    # extension of known ones among them) and after the last id
    for names, smallest in (
        (["a", "f"], "a"),
        (["", "b"], ""),
        (["d", "c", "ghost"], "c"),
        (["bb", "f"], "bb"),
        (["f00", "é"], "f00"),
        (["é", "éé", "z"], "z"),
        (["b", "é", "ê"], "ê"),
    ):
        with pytest.raises(ValueError, match=f"^member {smallest!r} has no reviewed product$"):
            index.rows(names)
    assert index.rows(["d", "b", "d", "é", "b"]) == [0, 2, 5]  # a repeated name counts once
    assert index.rows(iter(["f0"])) == [4]
    with pytest.raises(ValueError, match="must have members"):
        index.rows([])


def test_reviewer_rows_equal_a_dict_over_the_sorted_ids():
    rng = random.Random(5)
    names = [f"r{rng.randrange(10**rng.randint(1, 4))}" for _ in range(300)]
    index = ReviewerIndex(review_columns(table_of({r: {"p"} for r in names})))
    row = {r: i for i, r in enumerate(sorted(set(names)))}
    assert index.reviewers == sorted(row)
    for _ in range(200):
        chosen = rng.choices(names, k=rng.randint(1, 40))
        assert index.rows(chosen) == sorted({row[r] for r in chosen})


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


def test_penalty_is_bit_identical_to_expit():
    # every integer argument |R| + |P| - 3 up to a 200,000-element group
    arguments = range(-1, 200_000)
    got = [penalty(SimpleNamespace(size=1, n_products=x + 2)) for x in arguments]
    assert np.array_equal(got, expit(np.array(arguments, dtype=np.float64)))


# ---------------------------------------------------------------- tightness


def test_review_tightness_full_grid():
    g = make_group({"a": {"p1", "p2"}, "b": {"p1", "p2"}})
    assert review_tightness(g) == pytest.approx(logistic(1), abs=1e-12)


def test_review_tightness_sparse_grid():
    g = make_group({f"u{i}": {f"p{i}"} for i in range(10)})
    assert review_tightness(g) == pytest.approx(0.1 * logistic(17), abs=1e-12)


def test_review_tightness_counts_match_capped_counts():
    # the group's products are the union of the member sets, so capping
    # each set to them (the earlier formula) removes nothing
    rng = random.Random(12)
    for _ in range(200):
        sets = random_member_sets(rng, rng.randint(1, 30))
        g = make_group(sets)
        union = frozenset().union(*sets.values())
        assert g.n_products == len(union) and g.product_counts is g.product_counts
        capped = sum(len(ps & union) for ps in sets.values())
        assert review_tightness(g) == capped / (g.size * len(union)) * penalty(g)


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


# ------------------------------------------------- pair-loop oracle for nt


def _jaccard(a, b):
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _neighbor_tightness_pairs(sets):
    """One Jaccard per member pair of a {member: product set} group, summed left to right.

    An explicit loop, not sum(): from Python 3.12 sum() compensates float
    addition, while neighbor_tightness adds in plain sequence.
    """
    members = sorted(sets)
    if len(members) < 2:
        return 0.0
    total = 0.0
    for a, b in combinations(members, 2):
        total += _jaccard(sets[a], sets[b])
    mean = total / (len(members) * (len(members) - 1) / 2)
    return mean * penalty(make_group(sets))


def random_member_sets(rng, size, n_products=40, max_products=6):
    return {
        f"u{i:05d}": frozenset(
            f"p{rng.randrange(n_products)}" for _ in range(rng.randint(1, max_products))
        )
        for i in range(size)
    }


def distinct_sets(rng, size, n_products=300, max_products=10):
    """`size` members whose product sets are pairwise distinct."""
    sets = set()
    while len(sets) < size:
        sets.add(frozenset(f"p{rng.randrange(n_products)}" for _ in range(rng.randint(1, max_products))))
    return {f"u{i:05d}": ps for i, ps in enumerate(sorted(sets, key=sorted))}


def n_distinct_sets(sets):
    return len(set(map(frozenset, sets.values())))


def assert_matches_pair_loop(sets):
    assert n_distinct_sets(sets) == len(sets)
    assert neighbor_tightness(make_group(sets)) == _neighbor_tightness_pairs(sets)


def test_neighbor_tightness_one_set_is_penalty():
    for k in (2, 3, 12, 2100):
        g = make_group({f"u{i}": {"a", "b", "c", "d", "e"} for i in range(k)})
        assert neighbor_tightness(g) == penalty(g)


@pytest.mark.parametrize("a, b", [(1, 1), (1, 4), (3, 2), (40, 7)])
@pytest.mark.parametrize(
    "first, second, jaccard",
    [({"x", "y"}, {"y", "z"}, 1 / 3), ({"x"}, {"y"}, 0.0), ({"x"}, {"x", "y", "z", "w"}, 1 / 4)],
)
def test_neighbor_tightness_two_sets_match_weighted_formula(a, b, first, second, jaccard):
    # members "a*" sort before "b*", so the first set is the first distinct
    # set: its own pairs, then the cross pairs, then the second set's own
    g = make_group({**{f"a{i:03d}": first for i in range(a)}, **{f"b{i:03d}": second for i in range(b)}})
    n = a + b
    total = a * (a - 1) / 2 + a * b * jaccard + b * (b - 1) / 2
    assert neighbor_tightness(g) == total / (n * (n - 1) / 2) * penalty(g)


def test_neighbor_tightness_matches_pair_loop_on_random_groups():
    # exact where every set is distinct; repeated sets are checked by
    # test_neighbor_tightness_close_to_pair_loop_when_sets_repeat
    rng = random.Random(41)
    for _ in range(300):
        assert_matches_pair_loop(distinct_sets(rng, rng.randint(1, 30), n_products=40, max_products=6))


def test_neighbor_tightness_matches_pair_loop_on_edge_cases():
    assert_matches_pair_loop({"u": {"a", "b"}})  # singleton
    assert_matches_pair_loop({"u": {"a"}, "v": {"b"}})  # disjoint pair
    assert_matches_pair_loop({f"u{i}": {f"p{i}"} for i in range(12)})
    # one repeated set: every Jaccard is 1, so both sums are exact
    sets = {f"u{i}": {"a", "b"} for i in range(12)}
    assert neighbor_tightness(make_group(sets)) == _neighbor_tightness_pairs(sets)


@pytest.mark.parametrize("around", [math.isqrt(PAIR_BLOCK_ELEMENTS), 512])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_neighbor_tightness_matches_pair_loop_at_block_boundaries(around, offset):
    # blocks run over distinct sets: sqrt(budget) sets is the last count
    # one row block holds; at 512 the blocks tile the rows exactly, one set
    # less or more leaves a short last block
    rng = random.Random(around + offset)
    assert_matches_pair_loop(distinct_sets(rng, around + offset))


def test_neighbor_tightness_matches_pair_loop_on_large_group():
    assert_matches_pair_loop(distinct_sets(random.Random(2024), 2100))


def test_tightness_matches_pair_loop_on_sets_wider_than_int8():
    # R stores int8 ones, which would wrap an intersection count above 127
    base = [f"p{i:04d}" for i in range(200)]
    distinct = {f"u{i:02d}": frozenset(base + [f"x{i}"]) for i in range(30)}
    # nested sets of 256, 512 and 1024 products, each held by several
    # members: every Jaccard is a power of two, so any summation order is exact
    nested = [frozenset(f"p{i:04d}" for i in range(k)) for k in (256, 512, 1024)]
    repeated = {f"u{i:02d}": nested[i % 3] for i in range(15)}
    for sets in (distinct, repeated):
        group = make_group(sets)
        assert neighbor_tightness(group) == _neighbor_tightness_pairs(sets)
        union = frozenset().union(*sets.values())
        filled = sum(map(len, sets.values()))
        assert review_tightness(group) == filled / (group.size * len(union)) * penalty(group)


def test_neighbor_tightness_close_to_pair_loop_when_sets_repeat():
    # repeated sets are summed once with a weight, which changes only the
    # summation order: ROADMAP item 6 allows 1e-12 relative. The first 300
    # groups are the ones the random-group test compared with == before.
    rng = random.Random(41)
    groups = [random_member_sets(rng, rng.randint(1, 30)) for _ in range(300)]
    groups += [random_member_sets(rng, rng.randint(2, 30), n_products=6, max_products=3) for _ in range(300)]
    groups.append(random_member_sets(rng, 700, n_products=12, max_products=4))  # > 256 sets: two blocks
    assert n_distinct_sets(groups[-1]) > math.isqrt(PAIR_BLOCK_ELEMENTS)
    repeated = [sets for sets in groups if n_distinct_sets(sets) < len(sets)]
    assert len(repeated) > 250
    for sets in repeated:
        assert neighbor_tightness(make_group(sets)) == pytest.approx(
            _neighbor_tightness_pairs(sets), rel=1e-12, abs=0
        )


def test_neighbor_tightness_ignores_member_products_order():
    # the table's review order, which sets the order products and reviews are seen in
    rng = random.Random(7)
    for _ in range(50):
        sets = random_member_sets(rng, rng.randint(2, 40), n_products=8, max_products=4)
        reviews = table_of(sets).reviews
        rng.shuffle(reviews)
        shuffled = index_of(reviews).group(sets)
        assert neighbor_tightness(shuffled) == neighbor_tightness(make_group(sets))


def test_compactness_examples():
    g = make_group({"u": {"a"}, "v": {"b"}})
    assert compactness(g) == 0.0

    rt = logistic(1)
    pt = 1 / 3
    nt = (1 / 3) * logistic(2)
    assert rt * pt * nt == pytest.approx(0.07154602887644136, abs=1e-12)

    tight = make_group({f"u{i}": {"p1", "p2", "p3"} for i in range(30)})
    assert compactness(tight) == pytest.approx(penalty(tight) ** 2, abs=1e-9)


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
    index = index_of(reviews)
    assert value_of(index, index.deviation, "bal") == pytest.approx(0.0)
    single = index_of(
        [Review("solo", "p", 1, day(0))]
        + [Review(f"o{i}", "p", 5, day(i)) for i in range(1, 1000)]
    )
    # avg -> 5 as crowd grows; solo deviation -> 4/4
    assert value_of(single, single.deviation, "solo") == pytest.approx(
        (5 - 1 - 4 / 1000) / 4, abs=1e-12
    )
    assert value_of(index, index.deviation, "mix") == pytest.approx((0 + 2) / 2 / 4)


def test_avg_rating_deviation_unknown_reviewer():
    index = index_of([Review("a", "p", 3, day(0))])
    with pytest.raises(ValueError, match="ghost"):
        value_of(index, index.deviation, "ghost")
    with pytest.raises(ValueError, match="ghost"):
        index.group(["ghost"])


def test_burstness_examples():
    index = index_of(
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
    burst = index.burstness()
    assert value_of(index, burst, "one_day") == 1.0
    assert value_of(index, burst, "wide") == 0.0
    assert value_of(index, burst, "half") == 0.5
    assert value_of(index, burst, "single") == 1.0
    assert group_indicators(index.group(["half"])).avg_burstness == 0.5


def test_burstness_boundary_span_equals_tau():
    index = index_of([Review("edge", "p1", 5, day(0)), Review("edge", "p2", 5, day(30))])
    assert value_of(index, index.burstness(tau_days=30), "edge") == 0.0


@pytest.mark.parametrize("tau", [0, -5])
def test_burstness_rejects_tau_below_one(tau):
    index = index_of([Review("one_day", "p1", 5, day(3)), Review("one_day", "p2", 5, day(3))])
    with pytest.raises(ValueError, match="tau_days"):
        index.burstness(tau_days=tau)
    with pytest.raises(ValueError, match="tau_days"):
        group_indicators(index.group(["one_day"]), tau_days=tau)


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
        index = ScoringIndex(review_columns(table))
        k = rng.randrange(1, min(6, len(index.reviewers)) + 1)
        members = rng.sample(index.reviewers, k)
        vec = group_indicators(index.group(members))
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
        index = ScoringIndex(review_columns(table))
        members = rng.sample(index.reviewers, min(4, len(index.reviewers)))
        group = index.group(members)
        if product_tightness(group) == 0.0 or neighbor_tightness(group) == 0.0:
            assert compactness(group) == 0.0


def test_pairwise_oracle_for_pt_and_nt():
    rng = random.Random(17)
    for _ in range(100):
        table = random_table(rng)
        index = ScoringIndex(review_columns(table))
        members = rng.sample(index.reviewers, min(5, len(index.reviewers)))
        group = index.group(members)
        by_reviewer = oracles.reviews_by(table, "reviewer_id")
        sets = [{r.product_id for r in by_reviewer[m]} for m in sorted(members)]
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
    index = ScoringIndex(review_columns(table))
    members = rng.sample(index.reviewers, 4)
    base = group_indicators(index.group(members))

    renamed_reviews = [
        Review("R_" + r.reviewer_id, "P_" + r.product_id, r.rating, r.date, r.label)
        for r in table.reviews
    ]
    renamed = ReviewTable(renamed_reviews)
    renamed_members = ["R_" + m for m in members]
    vec = group_indicators(ScoringIndex(review_columns(renamed)).group(renamed_members))
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
    group = ScoringIndex(review_columns(table)).group(["a", "b"], source_cluster=7)
    group.group_id = 3
    vec = group_indicators(group)
    path = tmp_path / "indicators.tsv"
    write_indicators(path, [(group, vec)])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("group_id\tcluster\tsize\tn_products")
    fields = lines[1].split("\t")
    assert fields[:4] == ["3", "7", "2", "2"]
    assert float(fields[4]) == pytest.approx(vec.review_tightness, abs=1e-6)


# ------------------------------------------- oracles: per-member and per-piece


LABELS = (LABEL_FAKE, LABEL_GENUINE, LABEL_UNKNOWN)


def labeled_table(rng, n_reviewers=12, n_products=8, n_reviews=60):
    """Random labeled reviews, one per (reviewer, product): the last drawn wins."""
    reviews = [
        Review(
            f"u{rng.randrange(n_reviewers)}",
            f"p{rng.randrange(n_products)}",
            rng.randrange(1, 6),
            day(rng.randrange(120)),
            rng.choice(LABELS),
        )
        for _ in range(n_reviews)
    ]
    return ReviewTable({r[:2]: r for r in reviews}.values())


def assert_group_matches_oracle(group, table, stats, tau_days):
    reference = oracles.group_from_table(group.members, table)
    assert group.members == reference.members
    assert (group.size, group.n_products) == (reference.size, reference.n_products)
    assert group_indicators(group, tau_days) == oracles.group_indicators(
        reference, table, stats, tau_days
    )
    assert group_precision(group) == oracles.group_precision(reference, table)


def test_scoring_index_equals_per_member_oracles_on_random_tables():
    rng = random.Random(809)
    for _ in range(150):
        table = labeled_table(rng, n_reviews=rng.randrange(1, 80))
        index = ScoringIndex(review_columns(table))
        stats = oracles.product_stats(table)
        for tau in (1, 7, 30):
            burst = index.burstness(tau)
            for reviewer in index.reviewers:
                assert value_of(index, burst, reviewer) == oracles.burstness(reviewer, table, tau)
        for reviewer in index.reviewers:
            expected = oracles.avg_rating_deviation(reviewer, table, stats)
            assert value_of(index, index.deviation, reviewer) == expected
        for _ in range(5):
            members = rng.sample(index.reviewers, rng.randint(1, len(index.reviewers)))
            assert_group_matches_oracle(index.group(members), table, stats, rng.choice((1, 7, 30)))


def test_neighbor_tightness_equals_oracle_when_sets_repeat_across_blocks():
    # 300 distinct sets make blocks of 218 rows; members holding one set
    # are spread over the sorted order, so repeats sit on both sides of a
    # block boundary
    rng = random.Random(31)
    sets = list(distinct_sets(rng, 300, n_products=60, max_products=5).values())
    members = {f"u{i:05d}": rng.choice(sets) for i in range(900)}
    group = make_group(members)
    assert n_distinct_sets(members) > PAIR_BLOCK_ELEMENTS // n_distinct_sets(members)
    reference = oracles.group_from_table(members, table_of(members))
    assert neighbor_tightness(group) == oracles.neighbor_tightness(reference)
    assert group_indicators(group) == oracles.group_indicators(
        reference, table_of(members), oracles.product_stats(table_of(members))
    )


def test_extract_groups_equals_per_piece_oracle():
    rng = random.Random(78)
    for _ in range(40):
        table = labeled_table(rng, n_reviewers=20, n_products=10, n_reviews=90)
        columns = review_columns(table)
        graph = build_graph(columns, min_co_review=rng.choice((1, 2)))
        index = ScoringIndex(columns)
        n = len(graph.nodes)
        pieces = [{i} for i in range(n)]  # single nodes: isolated reviewer sets
        pieces += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(10)]
        for min_support in (1, 2, 3):
            got = extract_groups(pieces, graph, index, min_support)
            for piece, group in zip(pieces, got, strict=True):
                reference = oracles.extract_group(piece, graph, table, min_support)
                if reference is None:
                    assert group is None
                else:
                    assert group.members == reference.members
                    assert group_indicators(group) == oracles.group_indicators(
                        reference, table, oracles.product_stats(table)
                    )
        singles = extract_groups(pieces[:n], graph, index, min_support=1)
        assert [g.members for g in singles] == [node.reviewers for node in graph.nodes]


def test_extract_candidate_groups_equals_per_piece_oracle():
    from spamrings.pipeline import GroupConfig, PipelineConfig, extract_candidate_groups
    from spamrings.synth import SynthConfig, generate

    table, _ = generate(SynthConfig(n_reviewers=300, n_products=60, seed=3))
    columns = review_columns(table)
    graph = build_graph(columns)
    index = ScoringIndex(columns)
    logits = np.random.default_rng(5).normal(scale=2.0, size=(len(graph.nodes), 12))
    assignment = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    for min_support in (1, 2):
        config = PipelineConfig(group=GroupConfig(min_support=min_support))
        got = extract_candidate_groups(graph, assignment, index, config)
        expected = oracles.extract_candidate_groups_reference(graph, assignment, table, config)
        assert len(got) == len(expected) > 10
        for g, e in zip(got, expected):
            assert (g.members, g.source_cluster, g.group_id) == (
                e.members, e.source_cluster, e.group_id
            )
