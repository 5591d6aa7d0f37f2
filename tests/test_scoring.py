import datetime
import random

import pytest

from spamrings.clustering import TrainConfig
from spamrings.graph import build_graph
from spamrings.indicators import IndicatorVector, group_from_table, group_indicators
from spamrings.pipeline import GroupConfig, PipelineConfig, StageError, sweep, write_eval_summary
from spamrings.reviews import (
    LABEL_FAKE,
    LABEL_GENUINE,
    Review,
    ReviewTable,
    dedupe,
    product_stats,
)
from spamrings.scoring import (
    anomaly_score,
    attach_precision,
    group_precision,
    normalize_scores,
    rank_groups,
    size_distribution,
)
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate

D0 = datetime.date(2014, 1, 1)


def day(offset):
    return D0 + datetime.timedelta(days=offset)


def vec(compactness, deviation=0.0, burst=0.0):
    return IndicatorVector(0.0, 0.0, 0.0, compactness, deviation, burst)


def dummy_group(n_members, gid, cluster=None):
    from spamrings.indicators import CandidateGroup

    members = {f"g{gid}_u{i}": {f"p{gid}"} for i in range(n_members)}
    return CandidateGroup(
        members=frozenset(members),
        member_products={m: frozenset(ps) for m, ps in members.items()},
        source_cluster=gid if cluster is None else cluster,
        group_id=gid,
    )


# ------------------------------------------------------------- normalization


def test_minmax_normalization_columns():
    items = [
        (dummy_group(3, 0), vec(0.2, 0.4, 0.1)),
        (dummy_group(3, 1), vec(0.6, 0.4, 0.2)),
        (dummy_group(3, 2), vec(1.0, 0.4, 0.3)),
    ]
    scored = normalize_scores(items)
    assert [s.compactness_norm for s in scored] == pytest.approx([0.0, 0.5, 1.0])
    assert [s.deviation_norm for s in scored] == [0.0, 0.0, 0.0]  # zero-range column
    assert [s.burstness_norm for s in scored] == pytest.approx([0.0, 0.5, 1.0])


def test_single_group_normalizes_to_zero():
    scored = normalize_scores([(dummy_group(3, 0), vec(0.7, 0.5, 0.3))])
    only = scored[0]
    assert (only.compactness_norm, only.deviation_norm, only.burstness_norm) == (0, 0, 0)
    assert only.anomaly_score == 0.0


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_scores([])


# ------------------------------------------------------------- anomaly score


def test_anomaly_score_endpoints_and_example():
    assert anomaly_score(1, 1, 1) == 5.0
    assert anomaly_score(0, 0, 0) == 0.0
    assert anomaly_score(0.5, 0.2, 0.4) == pytest.approx(2.1)


# -------------------------------------------------------------------- ranking


def test_rank_order_and_floor():
    items = [
        (dummy_group(25, 0), vec(0.3)),
        (dummy_group(30, 1), vec(1.0)),
        (dummy_group(40, 2), vec(0.6)),
        (dummy_group(12, 3), vec(0.9)),  # under the size floor
    ]
    ranking = rank_groups(normalize_scores(items), size_floor=20)
    headline_ids = [sg.group.group_id for sg in ranking.headline]
    assert headline_ids == [1, 2, 0]
    full_ids = [sg.group.group_id for sg in ranking.full]
    assert full_ids == [1, 3, 2, 0]


def test_rank_tiebreak_bigger_group_then_id():
    items = [
        (dummy_group(25, 0), vec(0.5)),
        (dummy_group(40, 1), vec(0.5)),
        (dummy_group(40, 2), vec(0.5)),
        (dummy_group(60, 3), vec(1.0)),  # anchor so 0.5s normalize equal
        (dummy_group(60, 4), vec(0.0)),
    ]
    ranking = rank_groups(normalize_scores(items), size_floor=20)
    ids = [sg.group.group_id for sg in ranking.full]
    assert ids == [3, 1, 2, 0, 4]


def test_ranking_invariant_under_affine_rescaling():
    rng = random.Random(3)
    groups = [dummy_group(rng.randrange(20, 60), gid) for gid in range(8)]
    raw = [rng.random() for _ in groups]
    dev = [rng.random() for _ in groups]
    bst = [rng.random() for _ in groups]
    items = [(g, vec(c, d, b)) for g, c, d, b in zip(groups, raw, dev, bst)]
    base_order = [sg.group.group_id for sg in rank_groups(normalize_scores(items)).full]
    # order-preserving affine maps on each raw column leave the ranking alone
    items2 = [
        (g, vec(3.0 * c + 4.0, 0.25 * d + 1.0, 10.0 * b)) for g, c, d, b in zip(groups, raw, dev, bst)
    ]
    order2 = [sg.group.group_id for sg in rank_groups(normalize_scores(items2)).full]
    assert order2 == base_order


# ------------------------------------------------------------------ precision


def precision_table():
    reviews = []
    for i in range(25):
        label = LABEL_FAKE if i < 19 else LABEL_GENUINE
        reviews.append(Review(f"m{i:02d}", "p0", 5, day(i), label))
    return ReviewTable(reviews)


def test_group_precision_fraction():
    table = precision_table()
    group = group_from_table([f"m{i:02d}" for i in range(25)], table)
    assert group_precision(group, table) == pytest.approx(0.76)


def test_group_precision_extremes():
    table = ReviewTable(
        [
            Review("a", "p", 5, day(0), LABEL_GENUINE),
            Review("b", "p", 5, day(1), LABEL_GENUINE),
        ]
    )
    group = group_from_table(["a", "b"], table)
    assert group_precision(group, table) == 0.0

    table2 = ReviewTable(
        [
            Review("a", "p", 5, day(0), LABEL_FAKE),
            Review("b", "p", 5, day(1), LABEL_FAKE),
        ]
    )
    assert group_precision(group_from_table(["a", "b"], table2), table2) == 1.0


def test_group_precision_undefined_without_labels():
    table = ReviewTable([Review("a", "p", 5, day(0)), Review("b", "p", 4, day(1))])
    group = group_from_table(["a", "b"], table)
    assert group_precision(group, table) is None


def test_member_with_any_fake_review_counts_fake():
    table = ReviewTable(
        [
            Review("a", "p1", 5, day(0), LABEL_GENUINE),
            Review("a", "p2", 5, day(1), LABEL_FAKE),
            Review("b", "p1", 4, day(2), LABEL_GENUINE),
        ]
    )
    group = group_from_table(["a", "b"], table)
    assert group_precision(group, table) == pytest.approx(0.5)


# ------------------------------------------------------------- distributions


def test_size_distribution_buckets():
    hist = size_distribution([25, 25, 60])
    assert hist == {20: 2, 60: 1}


def test_size_distribution_top_n_and_conservation():
    # ranked sizes, cut to the strongest group by the caller
    sizes = [25, 25, 60, 31, 44]
    assert size_distribution(sizes[:1]) == {20: 1}
    assert sum(size_distribution(sizes).values()) == len(sizes)


# ------------------------------------------------------------------ evaluate


def test_evaluate_report_top_row(tmp_path):
    table = precision_table()
    items = [
        (group_from_table([f"m{i:02d}" for i in range(25)], table), vec(1.0, 0.5, 0.5)),
        (group_from_table(["m00", "m01"], table), vec(0.2)),
    ]
    ranking = rank_groups(attach_precision(normalize_scores(items), table), size_floor=20)
    rows = [(r, sg.group.group_id, sg.size, sg.precision) for r, sg in enumerate(ranking.full, 1)]
    lines = write_eval_summary(tmp_path / "eval_summary.txt", rows, floor=20).splitlines()
    top = lines.index("Group Size\tPrecision") + 1
    assert lines[top] == "25\t0.7600"
    histogram = lines[lines.index("bucket\tcount") + 1 :]
    assert sum(int(line.split("\t")[1]) for line in histogram) == 2


def test_attach_precision_preserves_order():
    table = precision_table()
    items = [
        (group_from_table(["m00", "m01"], table), vec(0.2)),
        (group_from_table(["m20", "m21"], table), vec(0.9)),
    ]
    scored = attach_precision(normalize_scores(items), table)
    assert scored[0].precision == 1.0
    assert scored[1].precision == 0.0


# ---------------------------------------------------------------------- sweep


def sweep_table():
    cfg = SynthConfig(
        n_reviewers=250,
        n_products=60,
        reviews_per_reviewer=4,
        horizon_days=360,
        planted=[PlantedGroupConfig(size=10, n_targets=4), PlantedGroupConfig(size=14, n_targets=4)],
        seed=5,
    )
    table, _ = generate(cfg)
    return dedupe(table)


def test_cluster_sweep_shape_and_determinism():
    table = sweep_table()
    cfg = PipelineConfig(seed=2, train=TrainConfig(n_clusters=8, epochs=120))
    points = sweep(table, cfg, [4, 8])
    assert [p.n_clusters for p in points] == [4, 8]
    for p in points:
        assert p.mean_top_precision is None or 0.0 <= p.mean_top_precision <= 1.0
        assert (p.n_groups < 10) == p.partial or p.n_groups >= 10
    again = sweep(table, cfg, [4, 8])
    assert points == again


def test_cluster_sweep_flags_partial_mean():
    # unsplit clusters give at most k = 3 groups, fewer than the top 10 the mean needs
    table = sweep_table()
    cfg = PipelineConfig(
        seed=1, train=TrainConfig(epochs=80), group=GroupConfig(split_components=False)
    )
    (point,) = sweep(table, cfg, [3])
    assert point.n_groups <= 3
    assert point.partial


def test_cluster_sweep_requires_labels():
    reviews = [Review("a", "p", 5, day(0)), Review("b", "p", 4, day(1))]
    with pytest.raises(StageError) as exc:
        sweep(ReviewTable(reviews), PipelineConfig(), [2])
    assert exc.value.stage == "sweep"


# ------------------------------------------------- planted vs background Π


def test_planted_compactness_beats_random_background_groups():
    rng = random.Random(0)
    hits = 0
    trials = 20
    for seed in range(trials):
        cfg = SynthConfig(
            n_reviewers=300,
            n_products=80,
            reviews_per_reviewer=4,
            horizon_days=360,
            planted=[PlantedGroupConfig(size=12, n_targets=4)],
            seed=seed,
        )
        table, truth = generate(cfg)
        table = dedupe(table)
        stats = product_stats(table)
        planted = group_from_table(truth[0], table)
        planted_pi = group_indicators(planted, table, stats).compactness
        background_users = [u for u in table.reviewers() if not u.startswith("f")]
        sample = rng.sample(background_users, len(truth[0]))
        background = group_from_table(sample, table)
        background_pi = group_indicators(background, table, stats).compactness
        if planted_pi > background_pi:
            hits += 1
    assert hits >= 0.95 * trials
