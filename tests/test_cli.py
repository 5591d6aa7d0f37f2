import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import modularity as dense_modularity
from spamrings.cli import main
from spamrings.graph import adjacency_sparse, build_graph
from spamrings.pipeline import PipelineConfig, StageError, derive_train_seed, detect, load_table
from spamrings.reviews import parse_reviews
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate, write_ground_truth
from spamrings.reviews import write_reviews


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small labeled synthetic dataset on disk, planted groups above the floor."""
    root = tmp_path_factory.mktemp("data")
    cfg = SynthConfig(
        n_reviewers=300,
        n_products=80,
        reviews_per_reviewer=4,
        horizon_days=360,
        planted=[
            PlantedGroupConfig(size=22, n_targets=4),
            PlantedGroupConfig(size=26, n_targets=4),
        ],
        seed=9,
    )
    table, truth = generate(cfg)
    write_reviews(table, root / "reviews.csv")
    write_ground_truth(root / "truth.tsv", truth)
    return root


FAST_DETECT = ["--epochs", "120", "--n-clusters", "20"]


def test_synth_then_ingest_round_trip(tmp_path):
    out = tmp_path / "synth"
    rc = main(
        ["synth", "--out", str(out), "--seed", "3", "--config", _small_synth_config(tmp_path)]
    )
    assert rc == 0
    table, errors = parse_reviews(out / "reviews.csv")
    assert errors == []
    assert len(table) > 0
    rc = main(["ingest", "--input", str(out / "reviews.csv"), "--out", str(tmp_path / "ing")])
    assert rc == 0
    summary = (tmp_path / "ing" / "ingest_summary.txt").read_text()
    assert "row_errors: 0" in summary
    assert "labels: fake=" in summary
    assert (tmp_path / "ing" / "reviews_clean.csv").exists()


def _small_synth_config(tmp_path):
    cfg = {
        "synth": {
            "n_reviewers": 150,
            "n_products": 50,
            "reviews_per_reviewer": 4,
            "horizon_days": 200,
            "planted": [{"size": 8, "n_targets": 3}],
        }
    }
    path = tmp_path / "synth_config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_synth_seed_determinism(tmp_path):
    for name in ("a", "b"):
        rc = main(["synth", "--out", str(tmp_path / name), "--seed", "7",
                   "--config", _small_synth_config(tmp_path)])
        assert rc == 0
    assert (tmp_path / "a" / "reviews.csv").read_bytes() == (tmp_path / "b" / "reviews.csv").read_bytes()
    assert (tmp_path / "a" / "ground_truth.tsv").read_bytes() == (tmp_path / "b" / "ground_truth.tsv").read_bytes()


def test_synth_zero_planted_empty_ground_truth(tmp_path):
    cfg = {"synth": {"n_reviewers": 60, "n_products": 30, "reviews_per_reviewer": 3, "planted": []}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["synth", "--out", str(tmp_path / "o"), "--config", str(path)])
    assert rc == 0
    assert (tmp_path / "o" / "ground_truth.tsv").read_text() == ""


def test_ingest_without_label_column_notes_disabled(tmp_path):
    src = tmp_path / "r.csv"
    src.write_text("u1,p1,5,2014-01-01\nu2,p1,4,2014-01-02\n")
    rc = main(["ingest", "--input", str(src), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = (tmp_path / "out" / "ingest_summary.txt").read_text()
    assert "labels: none; evaluation disabled" in summary


def test_ingest_empty_file_fails(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    rc = main(["ingest", "--input", str(src), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "ingest" in capsys.readouterr().err


def test_ingest_missing_file_fails(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_detect_reports(dataset, tmp_path):
    out = tmp_path / "det"
    rc = main(
        ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(out), "--seed", "5"]
        + FAST_DETECT
    )
    assert rc == 0
    for name in (
        "manifest.json",
        "ranked_groups.jsonl",
        "summary.txt",
        "indicators.tsv",
        "assignment.csv",
        "checkpoint.npz",
    ):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config_hash"]
    assert len(manifest["loss_trace"]) == 120
    assert manifest["config"]["train"]["epochs"] == 120

    floor = manifest["config"]["rank"]["size_floor"]
    records = [json.loads(l) for l in (out / "ranked_groups.jsonl").read_text().splitlines()]
    headline = [r for r in records if r["headline"]]
    assert all(r["size"] >= floor for r in headline)
    assert [r["rank"] for r in records] == list(range(1, len(records) + 1))
    scores = [r["anomaly_score"] for r in records]
    assert scores == sorted(scores, reverse=True)


def test_manifest_counts_isolated_and_train_nodes(dataset, tmp_path):
    out = tmp_path / "det"
    rc = main(
        ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(out), "--seed", "5"]
        + FAST_DETECT
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    _, _, table = load_table(PipelineConfig(input=str(dataset / "reviews.csv")))
    degree = np.asarray(adjacency_sparse(build_graph(table)).sum(axis=1)).ravel()
    assert manifest["n_nodes"] == len(degree)
    assert manifest["n_isolated_nodes"] + manifest["n_train_nodes"] == manifest["n_nodes"]
    assert manifest["n_isolated_nodes"] == np.count_nonzero(degree == 0) > 0


def test_manifest_counts_ingest_rows_errors_and_duplicates(dataset, tmp_path):
    rows = (dataset / "reviews.csv").read_text().splitlines()
    reviewer, product, rating, label, _ = rows[0].split(",")
    rerated = f"{reviewer},{product},{rating},{label},2099-01-01"
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join([*rows, rerated, "u1,p1,six,,2014-01-01", "", "u2,p2"]) + "\n")
    out = tmp_path / "det"
    rc = main(["detect", "--input", str(dirty), "--out", str(out), "--seed", "5"] + FAST_DETECT)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_rows_parsed"] == len(rows) + 1
    assert manifest["n_row_errors"] == 2
    assert manifest["n_duplicates_removed"] == 1


def test_manifest_modularity_q_matches_dense_oracle(dataset, tmp_path):
    out = tmp_path / "det"
    rc = main(
        ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(out), "--seed", "5"]
        + FAST_DETECT
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    _, _, table = load_table(PipelineConfig(input=str(dataset / "reviews.csv")))
    adj = adjacency_sparse(build_graph(table)).toarray()
    rows = (out / "assignment.csv").read_text().splitlines()[1:]
    labels = [int(row.split(",")[1]) for row in rows]
    assert manifest["modularity_q"] == pytest.approx(dense_modularity(adj, labels), abs=1e-12)


def _loaded_after(commands):
    """In a fresh process: whether numpy has run and scipy is imported, after each step.

    The steps are ``import spamrings.cli`` and then each command through
    ``cli.main``. ``numpy._core`` (``numpy.core`` before numpy 2) marks that
    numpy's code has run: the lazy placeholder sits in sys.modules under
    ``numpy`` before that.
    """
    code = (
        "import sys\n"
        "def ran(): return 'numpy._core' in sys.modules or 'numpy.core' in sys.modules\n"
        "def loaded(): print('loaded', ran(), 'scipy' in sys.modules)\n"
        "import spamrings.cli\n"
        "loaded()\n"
        f"for argv in {commands!r}:\n"
        "    assert spamrings.cli.main(argv) == 0, argv\n"
        "    loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("loaded ")]


def test_imports_load_no_unneeded_modules(dataset, tmp_path):
    code = (
        "import sys, spamrings; print('numpy' in sys.modules); "
        "import spamrings.cli; print('scipy.special' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]

    reviews = str(dataset / "reviews.csv")
    member = (dataset / "reviews.csv").read_text(encoding="utf-8").split(",", 1)[0]
    ranked = tmp_path / "ranked.jsonl"
    ranked.write_text(json.dumps({"rank": 1, "group_id": 0, "members": [member]}) + "\n")
    commands = [
        ["ingest", "--input", reviews, "--out", str(tmp_path / "ing")],
        ["eval", "--input", reviews, "--ranked", str(ranked), "--out", str(tmp_path / "ev")],
        ["detect", "--input", reviews, "--out", str(tmp_path / "det"), "--epochs", "5"],
    ]
    light, heavy = ["False", "False"], ["True", "True"]
    assert _loaded_after(commands) == [light, light, light, heavy]

    code = "import numpy, spamrings.graph; print(spamrings.graph.np is numpy)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


REPORT_FILES = ("ranked_groups.jsonl", "summary.txt", "indicators.tsv", "assignment.csv")


def _detect_in_subprocess(dataset, out, seed, **env):
    proc = subprocess.run(
        [sys.executable, "-m", "spamrings.cli", "detect", "--input",
         str(dataset / "reviews.csv"), "--out", str(out), "--seed", str(seed)]
        + FAST_DETECT,
        env=dict(os.environ, **env),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_detect_byte_identical_across_processes(dataset, tmp_path):
    outs = [
        _detect_in_subprocess(dataset, tmp_path / name, 11, PYTHONHASHSEED=hashseed)
        for name, hashseed in (("d1", "1"), ("d2", "4242"))
    ]
    for name in REPORT_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_detect_unreachable_graph_is_graph_stage_error(dataset, tmp_path, capsys):
    rc = main(
        [
            "detect",
            "--input",
            str(dataset / "reviews.csv"),
            "--out",
            str(tmp_path / "out"),
            "--min-co-review",
            "100000",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "graph" in err


def test_sweep_table_shape(dataset, tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--input",
            str(dataset / "reviews.csv"),
            "--out",
            str(out),
            "--k-list",
            "6,10,14",
            "--epochs",
            "60",
            "--seed",
            "2",
        ]
    )
    assert rc == 0
    lines = (out / "sweep.tsv").read_text().splitlines()
    assert lines[0] == "k\tmean_top10_precision\tn_groups\tpartial"
    assert len(lines) == 4
    assert [l.split("\t")[0] for l in lines[1:]] == ["6", "10", "14"]


def test_sweep_single_k_single_row(dataset, tmp_path):
    out = tmp_path / "sweep1"
    rc = main(
        ["sweep", "--input", str(dataset / "reviews.csv"), "--out", str(out),
         "--k-list", "8", "--epochs", "60"]
    )
    assert rc == 0
    assert len((out / "sweep.tsv").read_text().splitlines()) == 2


@pytest.mark.parametrize("split", [True, False])
def test_sweep_and_detect_agree_on_group_count(dataset, tmp_path, split):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"group": {"split_components": split}}))
    common = ["--input", str(dataset / "reviews.csv"), "--config", str(cfg_path), "--seed", "4"]
    assert main(["detect", *common, "--out", str(tmp_path / "det")] + FAST_DETECT) == 0
    # sweep at k = the detect run's --n-clusters
    assert main(["sweep", *common, "--out", str(tmp_path / "sw"), "--k-list", "20"]
                + FAST_DETECT) == 0
    manifest = json.loads((tmp_path / "det" / "manifest.json").read_text())
    assert manifest["config"]["train"]["n_clusters"] == 20
    (row,) = (tmp_path / "sw" / "sweep.tsv").read_text().splitlines()[1:]
    assert int(row.split("\t")[2]) == manifest["n_groups"]


@pytest.mark.parametrize("k_list", ["8,1", "8,x", ","])
def test_bad_k_list_fails_before_loading_the_table(tmp_path, capsys, k_list):
    out = tmp_path / "out"
    # the input does not exist, so reaching load_table would fail at "ingest"
    rc = main(["sweep", "--input", str(tmp_path / "absent.csv"), "--out", str(out),
               "--k-list", k_list])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "k-list" in err, err
    assert not (out / "sweep.tsv").exists()


def test_sweep_refuses_unlabeled(tmp_path, capsys):
    src = tmp_path / "r.csv"
    src.write_text("u1,p1,5,2014-01-01\nu2,p1,4,2014-01-02\n")
    rc = main(["sweep", "--input", str(src), "--out", str(tmp_path / "o"), "--k-list", "4"])
    assert rc == 1
    assert "labels" in capsys.readouterr().err


def test_eval_command(dataset, tmp_path):
    det = tmp_path / "det"
    rc = main(
        ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(det), "--seed", "5"]
        + FAST_DETECT
    )
    assert rc == 0
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--input",
            str(dataset / "reviews.csv"),
            "--ranked",
            str(det / "ranked_groups.jsonl"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = (out / "eval_summary.txt").read_text()
    assert "Group Size\tPrecision" in text
    assert "group size distribution" in text
    # eval and detect share the headline/top-group block and the histogram rows
    evaluated = text.splitlines()
    summary = (det / "summary.txt").read_text().splitlines()
    assert summary[3] == "top group"
    assert evaluated[1:6] == summary[1:6]
    histogram = summary[summary.index("bucket\tcount"):]
    assert evaluated[evaluated.index("bucket\tcount"):] == histogram


@pytest.mark.parametrize(
    "bad_line, named",
    [
        ('{"rank": 2, "group_id": 1', "line 2: Expecting ','"),
        ('{"rank": 2, "group_id": 1}', "line 2: no 'members' key"),
        ("[2, 1]", "line 2: expected a JSON object, got list"),
        ('{"rank": 2, "group_id": 1, "members": ["nobody"]}', "line 2: member 'nobody'"),
    ],
)
def test_eval_malformed_ranked_line_names_file_and_line(
    dataset, tmp_path, capsys, bad_line, named
):
    member = (dataset / "reviews.csv").read_text().split(",", 1)[0]
    ranked = tmp_path / "ranked.jsonl"
    good = json.dumps({"rank": 1, "group_id": 0, "members": [member]})
    ranked.write_text(f"{good}\n{bad_line}\n")
    rc = main(
        ["eval", "--input", str(dataset / "reviews.csv"), "--ranked", str(ranked),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: eval: {ranked} {named}"), err


def test_eval_refuses_unlabeled(dataset, tmp_path, capsys):
    det = tmp_path / "det2"
    assert (
        main(
            ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(det), "--seed", "5"]
            + FAST_DETECT
        )
        == 0
    )
    unlabeled = tmp_path / "plain.csv"
    unlabeled.write_text("u1,p1,5,2014-01-01\nu2,p1,4,2014-01-02\n")
    rc = main(
        ["eval", "--input", str(unlabeled), "--ranked", str(det / "ranked_groups.jsonl"),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 1


def test_config_file_with_flag_override(dataset, tmp_path):
    cfg = {
        "input": str(dataset / "reviews.csv"),
        "seed": 1,
        "train": {"epochs": 60, "n_clusters": 12},
        "rank": {"size_floor": 15},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["detect", "--config", str(cfg_path), "--out", str(out), "--seed", "8"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 8  # flag beats config file
    assert manifest["config"]["train"]["epochs"] == 60
    assert manifest["config"]["rank"]["size_floor"] == 15


def test_missing_input_is_config_error(capsys):
    rc = main(["detect", "--out", "/tmp/never"])
    assert rc == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--n-clusters", "0"], "n_clusters"),
        (["--min-support", "0"], "min_support"),
        (["--size-floor", "-1"], "size_floor"),
        (["--burst-tau-days", "-5"], "burst_tau_days"),
        (["--burst-tau-days", "0"], "burst_tau_days"),
        (["--min-co-review", "0"], "min_co_review"),
    ],
)
def test_bad_flag_fails_at_config_before_any_report(dataset, tmp_path, capsys, flags, field):
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(dataset / "reviews.csv"), "--out", str(out)] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and field in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"bogus": 1}, "bogus"),
        ({"train": {"epochs": 60, "bogus": 1}}, "train.bogus"),
        ({"rank": {"compactness_weight": -1.0}}, "compactness_weight"),
        ({"graph": {"weighting": "cubic"}}, "weighting"),
        ({"dedupe_policy": "keep_any"}, "dedupe_policy"),
        ({"burst_tau_days": 0}, "burst_tau_days"),
        ({"format": "xml"}, "format"),
        ({"train": {"add_self_loops": True}}, "unknown config key train.add_self_loops"),
    ],
)
def test_bad_config_file_fails_at_config_before_any_report(
    dataset, tmp_path, capsys, cfg, named
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(
        ["detect", "--config", str(cfg_path), "--input", str(dataset / "reviews.csv"),
         "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and named in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, flags, named",
    [
        ({"seed": -1}, [], "seed must be >= 0"),
        ({}, ["--seed", "-1"], "seed must be >= 0"),
        ({"seed": 1.5}, [], "seed must be int"),
        ({"seed": True}, [], "seed must be int"),
        ({"train": {"n_clusters": 5.0}}, [], "train.n_clusters must be int"),
        ({"train": {"hidden_width": 8.5}}, [], "train.hidden_width must be int"),
        ({"train": {"learning_rate": True}}, [], "train.learning_rate must be float"),
        ({"has_header": "no"}, [], "has_header must be bool"),
        ({"graph": {"dump": 1}}, [], "graph.dump must be bool"),
        ({"group": {"min_support": 1.5}}, [], "group.min_support must be int"),
        ({"graph": {"min_co_review": 2.5}}, [], "graph.min_co_review must be int"),
        ({"rank": {"compactness_weight": float("nan")}}, [], "compactness_weight must be finite"),
        ({"train": {"collapse_weight": float("inf")}}, [], "train.collapse_weight must be finite"),
    ],
)
def test_config_value_of_wrong_type_or_range_fails_at_config(
    dataset, tmp_path, capsys, cfg, flags, named
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(
        ["detect", "--config", str(cfg_path), "--input", str(dataset / "reviews.csv"),
         "--out", str(out)] + flags
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and named in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, flags, named",
    [
        ({}, ["--seed", "-1"], "seed must be >= 0"),
        ({"synth": {"n_reviewers": 50.5}}, [], "synth.n_reviewers must be int"),
        ({"synth": {"planted": [{"size": 2.5}]}}, [], "synth.planted.size must be int"),
        ({"synth": {"bogus": 1}}, [], "unknown config key synth.bogus"),
    ],
)
def test_synth_config_value_of_wrong_type_or_range_fails_before_generating(
    tmp_path, capsys, cfg, flags, named
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["synth", "--config", str(cfg_path), "--out", str(out)] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synth:") and named in err, err
    assert not out.exists()


def test_float_config_fields_accept_ints():
    config = PipelineConfig.from_dict({"input": "x.csv", "train": {"learning_rate": 1}})
    assert config.train.learning_rate == 1


@pytest.mark.parametrize(
    "text, flags, named",
    [
        (None, [], "absent.json"),
        ('{"seed": 1,', [], "cfg.json"),
        ("[1, 2]", [], "cfg.json"),
        ('{"graph": null}', [], "section graph"),
        ('{"graph": null}', ["--weighting", "binary"], "section graph"),
    ],
)
def test_malformed_config_file_fails_at_config_before_any_report(
    dataset, tmp_path, capsys, text, flags, named
):
    cfg_path = tmp_path / ("absent.json" if text is None else "cfg.json")
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    rc = main(
        ["detect", "--config", str(cfg_path), "--input", str(dataset / "reviews.csv"),
         "--out", str(out)] + flags
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and named in err, err
    assert not out.exists()


def test_synth_malformed_config_file_fails_at_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"synth": {"n_reviewers": 60,')
    out = tmp_path / "out"
    rc = main(["synth", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "cfg.json" in err, err
    assert not out.exists()


def test_reports_identical_across_blas_thread_counts(dataset, tmp_path):
    outs = [
        _detect_in_subprocess(
            dataset, tmp_path / f"t{n}", 3,
            OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n,
        )
        for n in ("1", "2")
    ]
    for name in REPORT_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# ------------------------------------------------------------ pipeline units


def test_unknown_config_key_is_config_stage_error():
    with pytest.raises(StageError) as exc:
        PipelineConfig.from_dict({"input": "x.csv", "group": {"min_suport": 2}})
    assert exc.value.stage == "config"
    assert "group.min_suport" in str(exc.value)


def test_derive_train_seed_deterministic():
    assert derive_train_seed(5) == derive_train_seed(5)
    assert derive_train_seed(5) != derive_train_seed(6)


def test_config_hash_ignores_out():
    a = PipelineConfig(input="x.csv", out="one")
    b = PipelineConfig(input="x.csv", out="two")
    c = PipelineConfig(input="y.csv", out="one")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_pipeline_config_round_trip(tmp_path):
    cfg = PipelineConfig(input="x.csv", seed=4)
    cfg.train.epochs = 77
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = PipelineConfig.from_file(path)
    assert loaded.to_dict() == cfg.to_dict()


def test_detect_stage_error_carries_stage(dataset):
    cfg = PipelineConfig(input=str(dataset / "reviews.csv"))
    cfg.graph.min_co_review = 10**6
    _, _, table = load_table(cfg)
    with pytest.raises(StageError) as exc:
        detect(table, cfg)
    assert exc.value.stage == "graph"
