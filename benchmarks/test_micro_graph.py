"""Microbenchmark of graph construction: the incidence B and the co-reviewer
count matrix BᵀB (pytest-benchmark).

Outside ``testpaths``, so the default test run skips it. Run with

    PYTHONPATH=src python -m pytest benchmarks/test_micro_graph.py

``test_graph_memory_heavy_tailed`` is no timing: it prints the
tracemalloc peak and kept size of ``build_graph``, which sets the heavy
shape's peak, and of ``adjacency_sparse``, training's ``_prepare`` and
``modularity``, the stages that read the graph after it is built, so
memory work on them has a number to start from.

Two inputs:

- the graph of the ``detect-big-groups`` benchmark workload at seed 0:
  1,176 nodes, 532 edges, co-reviewer counts up to 2,100;
- ``oracles.heavy_tailed_table`` at a tenth of the reviewers of the
  YelpNYC-sized shape on the ROADMAP: 16,000 reviewers and 923 products,
  reviewer activity Zipf(2.2) capped at 400 and product choice Zipf(1.0).
  A few hyperactive reviewers link most node pairs, which uniform
  ``synth`` data never shows.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import heavy_tailed_table

from spamrings.clustering import _prepare
from spamrings.graph import adjacency_sparse, build_graph, node_features
from spamrings.modularity import modularity
from spamrings.reviews import review_columns
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate


def test_co_review_matrix_big_groups(benchmark):
    table, _ = generate(
        SynthConfig(seed=0, planted=[PlantedGroupConfig(size=s) for s in (1500, 1800, 2100)])
    )
    graph = benchmark(build_graph, review_columns(table))
    assert (len(graph.node_keys), graph.co_review.nnz // 2) == (1176, 532)
    assert graph.co_review.data.max() == 2100


def test_co_review_matrix_heavy_tailed(benchmark):
    table = heavy_tailed_table(16_000, 923, cap=400)
    graph = benchmark(build_graph, review_columns(table))
    assert graph.co_review.has_canonical_format
    assert (len(graph.node_keys), graph.co_review.nnz // 2) == (4450, 171073)


def _traced(fn, *args):
    """fn(*args), and the tracemalloc peak and kept size of the call in MiB."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20, kept / 2**20


def test_graph_memory_heavy_tailed(capsys):
    columns = review_columns(heavy_tailed_table(16_000, 923, cap=400))
    graph, *build_mib = _traced(build_graph, columns)
    adj, *adj_mib = _traced(adjacency_sparse, graph)
    prob, *prepare_mib = _traced(_prepare, adj, node_features(graph))
    labels = np.random.default_rng(0).integers(0, 50, size=adj.shape[0])  # as argmax gives
    q, *modularity_mib = _traced(modularity, adj, labels)
    with capsys.disabled():
        print(
            f"\nheavy tailed: {graph.co_review.nnz:,} stored entries, "
            f"{prob.active.size:,} of {adj.shape[0]:,} nodes active, Q {q:.4f}"
        )
        for name, (peak, kept) in (
            ("build_graph", build_mib), ("adjacency_sparse", adj_mib),
            ("_prepare", prepare_mib), ("modularity", modularity_mib),
        ):
            print(f"  {name:<16} peak {peak:7.2f} MiB  kept {kept:7.2f} MiB")
    assert adj is graph.co_review and adj_mib[1] < 0.01
