"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import json

import numpy as np
import pytest

import checks
import run
import workloads
from tracing import Recorder, Span, layer_self_times, modularity_q, self_times


def test_self_time_subtracts_children():
    spans = [
        Span("run", 0.0, 10.0, None),
        Span("reviews.parse", 1.0, 4.0, 0),
        Span("graph.build", 2.0, 3.0, 1),
        Span("clustering.train", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert layer_self_times(spans) == {"run": 3.0, "reviews": 2.0, "graph": 1.0, "clustering": 4.0}


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("run", 0.0, 10.0, None),
        Span("a.x", 1.0, 5.0, 0),
        Span("a.y", 4.0, 6.0, 0),  # overlaps a.x by 1
        Span("a.z", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_spans_and_keeps_calls():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("graph.build", lambda x: x * 2)
    with rec.span("run"):
        assert inner(21) == 42
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("run", 0.0, 3.0, None),
        ("graph.build", 1.0, 2.0, 0),
    ]
    assert rec.calls["graph.build"] == ((21,), {}, 42)
    assert self_times(rec.spans) == [2.0, 1.0]


def _members(prefix, n):
    return {f"{prefix}{i}" for i in range(n)}


def test_planted_found_follows_criterion_6():
    a, b, c = _members("a", 10), _members("b", 10), _members("c", 10)
    truth = [frozenset(a), frozenset(b), frozenset(c)]
    a_list = sorted(a)
    headline = [
        set(a_list[:9]) | {"x0"},  # 0.9 of A: match
        set(a_list[:8]) | {"b0", "b1"},  # best is A again: not counted twice
        set(sorted(c)[:7]) | {"x1", "x2", "x3"},  # 0.7 of C: below 0.8
        set(b),  # beyond the first len(truth) groups: ignored
    ]
    assert checks.planted_found(headline, truth) == 1
    # A group below 0.8 still claims its best match for the groups after it.
    headline = [set(sorted(b)[:5]) | _members("y", 5), set(b), set(c)]
    assert checks.planted_found(headline, truth) == 1
    assert checks.planted_found([set(c), set(a), set(b)], truth) == 3


def test_headline_groups_reads_rank_order(tmp_path):
    path = tmp_path / "ranked_groups.jsonl"
    records = [
        {"rank": 1, "headline": True, "members": ["u1", "u2"]},
        {"rank": 2, "headline": False, "members": ["u3"]},
        {"rank": 3, "headline": True, "members": ["u4"]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert checks.headline_groups(path) == [{"u1", "u2"}, {"u4"}]


def test_injector_counts_are_exact_and_ingest_recovers_the_clean_rows(tmp_path):
    from spamrings.reviews import DEFAULT_LABEL_TOKENS, dedupe, parse_reviews

    workload = workloads.Workload("small", "ingest", dict(n_reviewers=400, n_products=60), dirty=True)
    inputs = workloads.generate_inputs(workload, seed=3)
    n_clean = 400 * 5 + (25 + 40 + 60) * 5
    assert len(inputs.clean_lines) == n_clean
    assert inputs.duplicates == n_clean * 5 // 100
    assert inputs.malformed == n_clean // 100
    assert inputs.fingerprint["rows"] == n_clean + inputs.duplicates + inputs.malformed

    path = tmp_path / "dirty.csv"
    path.write_text(inputs.text)
    raw, errors = parse_reviews(path)
    table = dedupe(raw)
    assert len(errors) == inputs.malformed
    assert len(raw) - len(table) == inputs.duplicates
    kept = [
        f"{r.reviewer_id},{r.product_id},{r.rating},{DEFAULT_LABEL_TOKENS[r.label]},{r.date}"
        for r in table.reviews
    ]
    assert sorted(kept) == sorted(inputs.clean_lines)
    assert checks.planted_surviving(kept, inputs.clean_lines, inputs.truth) == 3


def test_injector_counts_at_16x():
    rows = [["u", "p", "3", "1", "2014-01-01"]] * 160625
    rng = np.random.default_rng(0)
    _, kept, duplicates, malformed = workloads.inject_dirty(rows, rng)
    assert (duplicates, malformed, len(kept)) == (8031, 1606, 160625)


def test_inputs_depend_only_on_the_seed():
    workload = workloads.WORKLOADS["detect-big-groups"]
    first = workloads.generate_inputs(workload, 5).fingerprint
    assert workloads.generate_inputs(workload, 5).fingerprint == first
    assert workloads.generate_inputs(workload, 6).fingerprint != first


def test_fingerprint_mismatch_fails():
    workload = workloads.WORKLOADS["detect-big-groups"]
    inputs = workloads.generate_inputs(workload, 0)
    workloads.check_fingerprint(workload, 0, inputs)
    inputs.text += "u9,p9,3,1,2014-01-01\n"
    with pytest.raises(ValueError, match="differs from the recorded"):
        workloads.check_fingerprint(workload, 0, inputs)


def test_sparse_modularity_matches_the_dense_oracle():
    import scipy.sparse as sp
    from spamrings.modularity import modularity

    rng = np.random.default_rng(1)
    upper = np.triu(rng.integers(0, 3, size=(12, 12)).astype(float), k=1)
    adj = upper + upper.T
    labels = rng.integers(0, 3, size=12)
    assert modularity_q(sp.csr_array(adj), labels) == pytest.approx(modularity(adj, labels), abs=1e-12)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_timed_runs_pin_blas_and_the_default_run_unsets_it(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    pinned = run.child_env()
    assert all(pinned[v] == "1" for v in run.BLAS_VARS)
    assert not any(v in run.child_env(None) for v in run.BLAS_VARS)
    assert pinned["PYTHONPATH"].startswith(str(run.SRC))


def test_normalized_times_scale_by_the_reference_before_the_run():
    slow_host = run.Sample(wall=6.0, cpu=5.0, rss_mb=1.0, code=0, ref=2 * run.REF_S)
    assert (slow_host.wall_norm, slow_host.cpu_norm) == pytest.approx((3.0, 2.5))
