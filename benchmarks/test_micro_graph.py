"""Microbenchmark of graph edge construction (pytest-benchmark).

Outside ``testpaths``, so the default test run skips it. Run with

    PYTHONPATH=src python -m pytest benchmarks/test_micro_graph.py

The input is the graph of the ``detect-big-groups`` benchmark workload at
seed 0: 1,176 nodes, 532 edges, co-reviewer counts up to 2,100.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from spamrings.graph import build_edges, build_nodes
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate


def test_build_edges_big_groups(benchmark):
    table, _ = generate(
        SynthConfig(seed=0, planted=[PlantedGroupConfig(size=s) for s in (1500, 1800, 2100)])
    )
    nodes = build_nodes(table)
    edges = benchmark(build_edges, nodes)
    assert (len(nodes), len(edges)) == (1176, 532)
    assert max(e.n_co_reviewers for e in edges) == 2100
