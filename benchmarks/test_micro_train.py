"""Microbenchmark of GCN training (pytest-benchmark).

Outside ``testpaths``, so the default test run skips it. Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_micro_train.py \
        --benchmark-disable-gc

The cyclic garbage collector is off while a round runs, as it is for a
command of the CLI.

The input is the graph of the ``detect-big-groups`` benchmark workload at
seed 0: 1,176 nodes, 665 of them isolated, so training runs on 511. The
epoch count is fixed at 50 (a detect run trains 500) to keep a round short.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from spamrings.clustering import train
from spamrings.graph import adjacency_sparse, build_graph, node_features
from spamrings.pipeline import PipelineConfig, derive_train_seed
from spamrings.reviews import review_columns
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate

EPOCHS = 50


def test_train_big_groups(benchmark):
    table, _ = generate(
        SynthConfig(seed=0, planted=[PlantedGroupConfig(size=s) for s in (1500, 1800, 2100)])
    )
    graph = build_graph(review_columns(table))
    adj = adjacency_sparse(graph)
    feats = node_features(graph, adj)
    defaults = PipelineConfig().train
    config = dataclasses.replace(defaults, epochs=EPOCHS)
    result = benchmark(train, adj, feats, config, seed=derive_train_seed(0))
    assert (len(graph.nodes), result.n_train_nodes) == (1176, 511)
    assert len(result.loss_trace) == EPOCHS
    # the float32 path a detect run trains on
    assert {w.dtype for w in result.params} == {np.dtype(np.float32)}
