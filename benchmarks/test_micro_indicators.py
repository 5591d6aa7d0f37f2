"""Microbenchmarks of group extraction and the group indicators (pytest-benchmark).

Outside ``testpaths``, so the default test run skips them. Run with

    PYTHONPATH=src python -m pytest benchmarks/test_micro_indicators.py

The end-to-end benchmark is ``perfbench/run.py``; these time one layer alone.
"""

import datetime
import random

import pytest

pytest.importorskip("pytest_benchmark")

from spamrings.clustering import train
from spamrings.graph import adjacency_sparse, build_graph, node_features
from spamrings.indicators import (
    ScoringIndex,
    extract_candidate_groups,
    group_indicators,
    neighbor_tightness,
    penalty,
)
from spamrings.pipeline import PipelineConfig, derive_train_seed
from spamrings.reviews import Review, ReviewTable, review_columns
from spamrings.scoring import attach_precision, score_groups
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate


def member_group(member_products):
    """The group of every member of a {member: product set} table."""
    table = ReviewTable(
        [
            Review(m, p, 5, datetime.date(2014, 1, 1))
            for m, ps in member_products.items()
            for p in sorted(ps)
        ]
    )
    return ScoringIndex(review_columns(table)).group(member_products)


def test_neighbor_tightness_2000_members(benchmark):
    # mostly distinct product sets: the pair sum over sets is close to the
    # full member pair count
    rng = random.Random(0)
    group = member_group(
        {
            f"u{i:05d}": {f"p{rng.randrange(300)}" for _ in range(rng.randint(3, 10))}
            for i in range(2000)
        }
    )
    value = benchmark(neighbor_tightness, group)
    assert 0.0 < value <= 1.0


def test_neighbor_tightness_2000_members_lockstep(benchmark):
    # the planted shape: every member reviewed the same 5 products, so the
    # sum collapses to one distinct set
    products = {f"p{j}" for j in range(5)}
    group = member_group({f"u{i:05d}": products for i in range(2000)})
    value = benchmark(neighbor_tightness, group)
    assert value == penalty(group)


def test_group_indicators_50_groups(benchmark):
    table, _ = generate(SynthConfig(seed=0))
    index = ScoringIndex(review_columns(table))
    rng = random.Random(1)
    groups = [index.group(rng.sample(index.reviewers, rng.randint(2, 200))) for _ in range(50)]
    vectors = benchmark(lambda: [group_indicators(g) for g in groups])
    assert len(vectors) == 50


@pytest.fixture(scope="module")
def big_groups_run():
    """The ``detect-big-groups`` seed-0 input, its graph and its trained assignment."""
    table, _ = generate(
        SynthConfig(seed=0, planted=[PlantedGroupConfig(size=s) for s in (1500, 1800, 2100)])
    )
    config = PipelineConfig(input="synthetic", seed=0)
    graph = build_graph(review_columns(table))
    adj = adjacency_sparse(graph)
    feats = node_features(graph)
    result = train(adj, feats, config.train, seed=derive_train_seed(config.seed))
    return table, graph, result.clusters, config


def test_extract_and_score_big_groups(benchmark, big_groups_run):
    # what detect runs between training and ranking: index, extraction,
    # indicators and precision
    table, graph, clusters, config = big_groups_run

    def extract_and_score():
        index = ScoringIndex(review_columns(table))
        groups = extract_candidate_groups(graph, clusters, index, config.group.min_support)
        return attach_precision(score_groups(groups))

    scored = benchmark(extract_and_score)
    assert (len(scored), max(sg.size for sg in scored)) == (35, 2100)
