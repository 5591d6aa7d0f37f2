import pytest

from spamrings.reviews import (
    LABEL_FAKE,
    LABEL_GENUINE,
    dedupe,
    parse_reviews,
    review_columns,
    write_reviews,
)
from spamrings.synth import (
    PlantedGroupConfig,
    SynthConfig,
    generate,
    write_ground_truth,
)


def small_config(**kwargs):
    base = dict(
        n_reviewers=120,
        n_products=40,
        reviews_per_reviewer=4,
        horizon_days=360,
        planted=[PlantedGroupConfig(size=8, n_targets=3)],
        seed=11,
    )
    base.update(kwargs)
    return SynthConfig(**base)


def test_ground_truth_lists_exactly_planted_members():
    cfg = small_config(planted=[PlantedGroupConfig(size=30, n_targets=5, burst_window_days=7)])
    table, truth = generate(cfg)
    assert len(truth) == 1
    assert len(truth[0]) == 30
    fake_reviewers = {r.reviewer_id for r in table.reviews if r.label == LABEL_FAKE}
    assert fake_reviewers == set(truth[0])


def test_zero_planted_groups_all_genuine():
    table, truth = generate(small_config(planted=[]))
    assert truth == []
    assert all(r.label == LABEL_GENUINE for r in table.reviews)


def test_same_seed_identical_tables():
    cfg = small_config()
    t1, g1 = generate(cfg)
    t2, g2 = generate(cfg)
    assert t1.reviews == t2.reviews
    assert g1 == g2


def test_different_seed_differs():
    t1, _ = generate(small_config(seed=1))
    t2, _ = generate(small_config(seed=2))
    assert t1.reviews != t2.reviews


def test_infeasible_target_count_rejected():
    with pytest.raises(ValueError):
        small_config(planted=[PlantedGroupConfig(size=5, n_targets=50)])
    with pytest.raises(ValueError):
        small_config(
            planted=[PlantedGroupConfig(size=5, n_targets=25), PlantedGroupConfig(size=5, n_targets=25)]
        )


def test_planted_config_validation():
    with pytest.raises(ValueError):
        PlantedGroupConfig(size=1)
    with pytest.raises(ValueError):
        PlantedGroupConfig(size=5, rating=0)
    with pytest.raises(ValueError):
        PlantedGroupConfig(size=5, burst_window_days=-1)


def test_planted_reviews_extreme_rating_inside_window():
    cfg = small_config(planted=[PlantedGroupConfig(size=6, n_targets=3, rating=1, burst_window_days=5)])
    table, truth = generate(cfg)
    planted_reviews = [r for r in table.reviews if r.label == LABEL_FAKE]
    assert all(r.rating == 1 for r in planted_reviews)
    for member in truth[0]:
        dates = [r.date for r in planted_reviews if r.reviewer_id == member]
        assert (max(dates) - min(dates)).days <= 5
        assert len(dates) == 3


def test_one_review_per_member_target_pair():
    table, _ = generate(small_config())
    assert len(dedupe(table)) == len(table)


def test_tables_round_trip_through_files(tmp_path):
    cfg = small_config()
    table, truth = generate(cfg)
    reviews_path = tmp_path / "reviews.csv"
    write_reviews(table, reviews_path)
    parsed, errors = parse_reviews(reviews_path)
    assert errors == []
    assert parsed.reviews == table.reviews

    truth_path = tmp_path / "truth.tsv"
    write_ground_truth(truth_path, truth)
    rows = [f"{gi}\t{member}\n" for gi, members in enumerate(truth) for member in sorted(members)]
    assert truth_path.read_text(encoding="utf-8") == "".join(rows)


def test_ground_truth_groups_have_unit_precision():
    from spamrings.indicators import ScoringIndex
    from spamrings.scoring import group_precision

    table, truth = generate(small_config(planted=[PlantedGroupConfig(size=9, n_targets=3)]))
    index = ScoringIndex(review_columns(table))
    for members in truth:
        assert group_precision(index.group(members)) == 1.0


def test_background_ratings_near_product_means():
    cfg = small_config(n_reviewers=400, planted=[])
    table, _ = generate(cfg)
    # means are drawn from [2.5, 4.5]; with noise sd 0.8 most mass stays
    # within one star of the mean, so global share of extreme-low ratings
    # must be small
    ones = sum(1 for r in table.reviews if r.rating == 1)
    assert ones / len(table.reviews) < 0.08
