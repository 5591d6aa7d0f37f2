"""Microbenchmarks of the group indicators (pytest-benchmark).

Outside ``testpaths``, so the default test run skips them. Run with

    PYTHONPATH=src python -m pytest benchmarks/test_micro_indicators.py

The end-to-end benchmark is ``perfbench/run.py``; these time one layer alone.
"""

import random

import pytest

pytest.importorskip("pytest_benchmark")

from spamrings.indicators import (
    CandidateGroup,
    group_from_table,
    group_indicators,
    neighbor_tightness,
    penalty,
)
from spamrings.reviews import product_stats
from spamrings.synth import SynthConfig, generate


def test_neighbor_tightness_2000_members(benchmark):
    # mostly distinct product sets: the pair sum over sets is close to the
    # full member pair count
    rng = random.Random(0)
    member_products = {
        f"u{i:05d}": frozenset(f"p{rng.randrange(300)}" for _ in range(rng.randint(3, 10)))
        for i in range(2000)
    }
    group = CandidateGroup(members=frozenset(member_products), member_products=member_products)
    value = benchmark(neighbor_tightness, group)
    assert 0.0 < value <= 1.0


def test_neighbor_tightness_2000_members_lockstep(benchmark):
    # the planted shape: every member reviewed the same 5 products, so the
    # sum collapses to one distinct set
    products = frozenset(f"p{j}" for j in range(5))
    member_products = {f"u{i:05d}": products for i in range(2000)}
    group = CandidateGroup(members=frozenset(member_products), member_products=member_products)
    value = benchmark(neighbor_tightness, group)
    assert value == penalty(group)


def test_group_indicators_50_groups(benchmark):
    table, _ = generate(SynthConfig(seed=0))
    stats = product_stats(table)
    rng = random.Random(1)
    reviewers = table.reviewers()
    groups = [
        group_from_table(rng.sample(reviewers, rng.randint(2, 200)), table) for _ in range(50)
    ]
    vectors = benchmark(lambda: [group_indicators(g, table, stats) for g in groups])
    assert len(vectors) == 50
