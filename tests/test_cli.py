import argparse
import csv
import gc
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import modularity as dense_modularity, write_reviews_reference
from spamrings import cli, pipeline
from spamrings.cli import _pipeline_config, build_parser, main
from spamrings.graph import adjacency_sparse, build_graph
from spamrings.pipeline import (
    PipelineConfig,
    StageError,
    derive_train_seed,
    detect,
    load_config_file,
    load_table,
    write_detect_report,
)
from spamrings.reviews import dedupe, parse_reviews, review_columns
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


def test_ingest_tsv_writes_quoted_ids_as_csv_writer(tmp_path):
    rows = [
        ["u,1", 'p "a"', "5", "-1", "2014-01-02"],
        ['"u2"', "p,b", "2", "1", "2014-01-03"],
        ["u3", "p3", "4", "", "2014-01-04"],
        ["u,1", 'p "a"', "3", "-1", "2014-02-01"],
        ["u4", 'p "a"', "1", "1", "2014-01-05"],
    ]
    src = tmp_path / "reviews.tsv"
    with open(src, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(rows)
    out = tmp_path / "ing"
    assert main(["ingest", "--input", str(src), "--format", "tsv", "--out", str(out)]) == 0
    table, errors = parse_reviews(src, delimiter="\t")
    assert errors == [] and len(table) == 5
    write_reviews_reference(dedupe(table), tmp_path / "want.csv")
    got = (out / "reviews_clean.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b'"u,1","p ""a""",3,-1,2014-02-01\n' in got


def test_ingest_output_with_carriage_return_ids_reads_back(tmp_path):
    src = tmp_path / "reviews.csv"
    src.write_bytes(b'"cr\rid",p1,5,1,2014-01-01\nu2,"p\r2",4,-1,2014-01-02\n')
    assert main(["ingest", "--input", str(src), "--out", str(tmp_path / "ing")]) == 0
    clean = tmp_path / "ing" / "reviews_clean.csv"
    assert clean.read_bytes() == src.read_bytes()
    table, errors = parse_reviews(clean)
    assert errors == []
    assert [(r.reviewer_id, r.product_id) for r in table.reviews] == [("cr\rid", "p1"), ("u2", "p\r2")]


def test_synth_writes_the_reference_bytes(tmp_path):
    assert main(["synth", "--seed", "0", "--out", str(tmp_path / "syn")]) == 0
    table, _ = generate(SynthConfig(seed=0))
    write_reviews_reference(table, tmp_path / "want.csv")
    assert (tmp_path / "syn" / "reviews.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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
    assert capsys.readouterr().err == f"error: ingest: {src}: no valid reviews\n"


MALFORMED_ROWS = {  # the four kinds of malformed row the benchmark injects
    "u9,p1,6,-1,2014-01-01": "rating 6 outside 1..5",
    ",p1,5,-1,2014-01-01": "empty reviewer or product id",
    "u9,p1,5,-1,2014-02-30": "unparseable date '2014-02-30'",
    "u9,p1,five,-1,2014-01-01": "rating 'five' is not a number",
}


def test_ingest_summary_lists_the_first_20_row_errors_in_file_order(tmp_path):
    bad = list(MALFORMED_ROWS.items())
    rows, expected = [], []
    for i in range(25):
        rows.append(f"u{i},p{i % 7},{1 + i % 5},1,2014-01-{1 + i:02d}")
        row, message = bad[i % 4]
        rows.append(row)
        expected.append(f"row_error line {len(rows)}: {message}")
    rows.append("u30,p1,4,-1,2014-03-01")
    src = tmp_path / "reviews.csv"
    src.write_text("".join(r + "\n" for r in rows))
    assert main(["ingest", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    summary = (tmp_path / "out" / "ingest_summary.txt").read_text().splitlines()
    assert "row_errors: 25" in summary
    listed = [line for line in summary if line.startswith("row_error line ")]
    assert listed == expected[:20]
    assert listed == [f"row_error line {e.line}: {e.message}" for e in parse_reviews(src)[1][:20]]


def test_ingest_missing_file_fails(tmp_path, capsys):
    src = tmp_path / "nope.csv"
    rc = main(["ingest", "--input", str(src), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    # the OSError names the file, so the message names it once
    assert err.startswith("error: ingest: [Errno 2]") and err.count(str(src)) == 1, err


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


def test_detect_never_builds_the_edge_list(dataset, tmp_path):
    config = PipelineConfig.from_dict(
        {"input": str(dataset / "reviews.csv"), "out": str(tmp_path / "o"),
         "graph": {"dump": True}, "train": {"epochs": 20, "n_clusters": 20}}
    )
    table, _, ingest = load_table(config)
    result = detect(review_columns(table), config)
    paths = write_detect_report(result, config.out, ingest)
    assert "edges" not in vars(result.graph)  # the lazy upper-triangle view
    assert "nodes" not in vars(result.graph)  # the lazy per-node reviewer sets
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["n_edges"] == len(result.graph.edges) > 0
    dumped = paths["graph_edges"].read_text().splitlines()
    assert [line.split("\t")[2] for line in dumped] == [
        str(e.n_co_reviewers) for e in result.graph.edges
    ]


def test_manifest_counts_isolated_and_train_nodes(dataset, tmp_path):
    out = tmp_path / "det"
    rc = main(
        ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(out), "--seed", "5"]
        + FAST_DETECT
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    table, _, _ = load_table(PipelineConfig(input=str(dataset / "reviews.csv")))
    degree = np.asarray(adjacency_sparse(build_graph(review_columns(table))).sum(axis=1)).ravel()
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
    table, _, _ = load_table(PipelineConfig(input=str(dataset / "reviews.csv")))
    adj = adjacency_sparse(build_graph(review_columns(table))).toarray()
    rows = (out / "assignment.csv").read_text().splitlines()[1:]
    labels = [int(row.split(",")[1]) for row in rows]
    assert manifest["modularity_q"] == pytest.approx(dense_modularity(adj, labels), abs=1e-12)


def _loaded_after(commands):
    """In a fresh process: whether numpy and scipy are imported, after each step.

    The steps are ``import spamrings.cli`` and then each command through
    ``cli.main``. The library's lazy stand-ins never enter sys.modules, so
    a name there is a module that was loaded.
    """
    code = (
        "import sys\n"
        "def loaded(): print('loaded', 'numpy' in sys.modules, 'scipy' in sys.modules)\n"
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


@pytest.mark.parametrize(
    "command, flags", [("detect", []), ("sweep", ["--k-list", "4,8"])], ids=["detect", "sweep"]
)
def test_row_table_is_freed_before_the_stages_load_numpy(dataset, tmp_path, command, flags):
    """A weak reference to the table ``load_table`` returns is dead when the
    command's pipeline function starts, and numpy is not loaded yet."""
    argv = [command, "--input", str(dataset / "reviews.csv"), "--out", str(tmp_path / "o"),
            "--epochs", "2", *flags]
    code = f"""
import sys, weakref
from spamrings import cli
load_table, stage, tables, entered = cli.load_table, cli.{command}, [], []
def keep(config):
    loaded = load_table(config)
    tables.append(weakref.ref(loaded[0]))
    return loaded
def check(*args, **kwargs):
    entered.extend([tables[0]() is None, "numpy" in sys.modules])
    return stage(*args, **kwargs)
cli.load_table, cli.{command} = keep, check
print(cli.main({argv!r}), *entered)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "True", "False"]


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


# SHA-256 of the detect reports on the criterion-7 input: synth seed 0, detect
# seed 21, one BLAS thread. A change that alters report bytes on purpose
# updates these and says why in CHANGES.md.
GOLDEN_REPORT_DIGESTS = {
    "ranked_groups.jsonl": "afa64f6be539831a020df4d704c5c14c10964e0677d1a9671a5fca78f24f2864",
    "summary.txt": "0825eb52e6b8e32407124e9b4d8d6a1a6643467508a638389ac7cc44d20dc698",
    "indicators.tsv": "78c5c6629447e2de6fba209b155ad82dea1eaaa57dc9f07ea86ec7a8180151b7",
    "assignment.csv": "2903f6bde3cb19e422c687038998b4484530ed88ab86156a4b073589b2507bc0",
}


def test_detect_reports_match_golden_digests(tmp_path):
    table, _ = generate(SynthConfig(seed=0))
    write_reviews(table, tmp_path / "reviews.csv")
    one_thread = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-m", "spamrings.cli", "detect", "--input", str(tmp_path / "reviews.csv"),
         "--out", str(tmp_path / "out"), "--seed", "21"],
        env=dict(os.environ, **one_thread),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GOLDEN_REPORT_DIGESTS
    }
    assert digests == GOLDEN_REPORT_DIGESTS


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


def test_detect_with_no_candidate_group_is_score_stage_error(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(out),
         *FAST_DETECT, "--min-support", "10000"]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: score: no candidate groups were extracted from the clusters\n"
    )
    assert not (out / "ranked_groups.jsonl").exists()


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


def test_sweep_and_detect_agree_on_group_count(dataset, tmp_path):
    common = ["--input", str(dataset / "reviews.csv"), "--seed", "4"]
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


def test_eval_ranked_file_of_blank_lines_has_no_records(dataset, tmp_path, capsys):
    ranked = tmp_path / "ranked.jsonl"
    ranked.write_text("\n  \n\t\n")
    out = tmp_path / "o"
    rc = main(["eval", "--input", str(dataset / "reviews.csv"), "--ranked", str(ranked),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: eval: {ranked}: no records\n"
    assert not (out / "eval_summary.txt").exists()


def test_eval_skips_a_blank_line_between_records(dataset, tmp_path):
    member = (dataset / "reviews.csv").read_text().split(",", 1)[0]
    records = [{"rank": r, "group_id": r, "members": [member]} for r in (1, 2)]
    ranked = tmp_path / "ranked.jsonl"
    ranked.write_text(f"{json.dumps(records[0])}\n\n{json.dumps(records[1])}\n")
    out = tmp_path / "o"
    rc = main(["eval", "--input", str(dataset / "reviews.csv"), "--ranked", str(ranked),
               "--out", str(out)])
    assert rc == 0
    assert (out / "eval_summary.txt").read_text().splitlines()[0] == "groups: 2"


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


@pytest.mark.parametrize(
    "record, named",
    [
        ({"rank": "first", "group_id": 7, "members": ["a"]}, "rank must be an int, not 'first'"),
        ({"rank": True, "group_id": 7, "members": ["a"]}, "rank must be an int, not True"),
        ({"rank": 1, "group_id": [7], "members": ["a"]}, "group_id must be an int, not [7]"),
        ({"rank": 1, "group_id": 7, "members": "ab"}, "members must be a list of strings"),
        ({"rank": 1, "group_id": 7, "members": {"a": 1, "b": 2}}, "members must be a list of"),
        ({"rank": 1, "group_id": 7, "members": ["a", 2]}, "members must be a list of strings"),
    ],
)
def test_eval_rejects_ranked_fields_of_the_wrong_type(tmp_path, capsys, record, named):
    """A string or object of members is not read as its characters or keys."""
    reviews = tmp_path / "reviews.csv"
    reviews.write_text("a,p1,5,-1,2014-01-01\nb,p1,5,-1,2014-01-02\nc,p2,3,1,2014-01-03\n")
    ranked = tmp_path / "ranked.jsonl"
    ranked.write_text(json.dumps(record) + "\n")
    out = tmp_path / "o"
    rc = main(["eval", "--input", str(reviews), "--ranked", str(ranked), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: eval: {ranked} line 1: {named}"), err
    assert not out.exists()


def test_eval_unknown_member_is_eval_stage_error_naming_the_line(dataset, tmp_path):
    table, _, _ = load_table(PipelineConfig(input=str(dataset / "reviews.csv")))
    known = table.reviews[0].reviewer_id
    ranked = tmp_path / "ranked.jsonl"
    records = [{"rank": 1, "group_id": 0, "members": [known]},
               {"rank": 2, "group_id": 1, "members": [known, "nobody"]}]
    ranked.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(StageError) as exc:
        cli._ranked_rows(ranked, review_columns(table))
    assert exc.value.stage == "eval"
    assert str(exc.value) == f"eval: {ranked} line 2: member 'nobody' has no reviewed product"


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


def test_manifest_config_section_reruns_the_run(dataset, tmp_path):
    first = tmp_path / "first"
    argv = ["detect", "--input", str(dataset / "reviews.csv"), "--out", str(first), "--seed", "5"]
    assert main(argv + FAST_DETECT) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["derived_train_seed"] == derive_train_seed(5)
    assert "seed" not in manifest["config"]["train"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(manifest["config"]))
    again = tmp_path / "again"
    assert main(["detect", "--config", str(cfg_path), "--out", str(again)]) == 0
    for name in REPORT_FILES + ("checkpoint.npz",):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    rerun = json.loads((again / "manifest.json").read_text())
    assert (rerun["config_hash"], rerun["config"]["out"]) == (manifest["config_hash"], str(again))


@pytest.fixture(scope="module")
def default_and_4x_synth(tmp_path_factory):
    """Review files of synth data at the default scale and at 4x, seed 0."""
    root = tmp_path_factory.mktemp("scaled")
    paths = []
    for scale in (1, 4):
        table, _ = generate(SynthConfig(n_reviewers=2000 * scale, n_products=300 * scale, seed=0))
        paths.append(root / f"reviews_{scale}x.csv")
        write_reviews(table, paths[-1])
    return paths


@pytest.mark.parametrize("command, extra", [("ingest", []), ("detect", ["--epochs", "5"])])
def test_run_leaves_cyclic_garbage_independent_of_input_size(
    default_and_4x_synth, tmp_path, command, extra
):
    """The cyclic collector is off during a command, so a stage that made
    reference cycles would leave garbage growing with the input."""

    def garbage_after(path, out):
        gc.collect()
        assert main([command, "--input", str(path), "--out", str(tmp_path / out)] + extra) == 0
        return gc.collect()

    small, large = default_and_4x_synth
    gc.disable()  # no automatic collection between a run and the count after it
    try:
        garbage_after(small, "warm-up")  # a first run imports modules, which makes cycles
        counts = [garbage_after(small, "1x"), garbage_after(large, "4x")]
    finally:
        gc.enable()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_cyclic_gc_and_restores_it(dataset, tmp_path, monkeypatch, enabled):
    seen = []
    real_ingest = cli.COMMANDS["ingest"]
    monkeypatch.setitem(
        cli.COMMANDS, "ingest", lambda args: seen.append(gc.isenabled()) or real_ingest(args)
    )
    ingest = lambda path, out: main(["ingest", "--input", str(path), "--out", str(tmp_path / out)])
    (gc.enable if enabled else gc.disable)()
    try:
        ok = ingest(dataset / "reviews.csv", "a")
        after_ok = gc.isenabled()
        missing = ingest(tmp_path / "nope.csv", "b")
        after_missing = gc.isenabled()
    finally:
        gc.enable()
    assert (ok, missing) == (0, 1)
    assert seen == [False, False]
    assert (after_ok, after_missing) == (enabled, enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_freezes_objects_at_exit_only(dataset, tmp_path, enabled):
    """An atexit hook registered before main runs after main's, so it sees the freeze.

    gc.freeze is wrapped to count its calls: two commands freeze once, at exit.
    """
    argv = ["ingest", "--input", str(dataset / "reviews.csv"), "--out", str(tmp_path / "o")]
    code = (
        "import atexit, gc\n"
        "freeze, calls = gc.freeze, []\n"
        "gc.freeze = lambda: calls.append(1) or freeze()\n"
        "atexit.register(lambda: print('probe', len(calls), gc.get_freeze_count() > 0))\n"
        "from spamrings.cli import main\n"
        f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
        "for _ in range(2):\n"
        f"    assert main({argv!r}) == 0\n"
        "    print('after', len(calls), gc.get_freeze_count(), gc.isenabled())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith(("after", "probe"))]
    after = f"after 0 0 {enabled}"
    assert lines == [after, after, "probe 1 True"]


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_main_runs_blas_on_one_thread_unless_the_caller_set_a_count(
    dataset, tmp_path, monkeypatch, preset
):
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in preset.items():
        monkeypatch.setenv(var, value)
    before = dict(os.environ)
    seen = []
    real_ingest = cli.COMMANDS["ingest"]

    def ingest_seeing_blas_vars(args):
        seen.append({v: os.environ[v] for v in cli.BLAS_THREAD_VARS if v in os.environ})
        return real_ingest(args)

    monkeypatch.setitem(cli.COMMANDS, "ingest", ingest_seeing_blas_vars)
    ingest = lambda path, out: main(["ingest", "--input", str(path), "--out", str(tmp_path / out)])
    assert ingest(dataset / "reviews.csv", "a") == 0
    after_ok = dict(os.environ)
    assert ingest(tmp_path / "nope.csv", "b") == 1
    assert (after_ok, dict(os.environ)) == (before, before)
    want = preset or dict.fromkeys(cli.BLAS_THREAD_VARS, "1")
    assert seen == [want, want]


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
        (["--epochs", "0"], "train.epochs must be >= 1"),
        (["--hidden-width", "0"], "train.hidden_width must be >= 1"),
        (["--collapse-weight", "-1"], "train.collapse_weight must be >= 0"),
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
        ({"rank": {"compactness_weight": -1.0}}, "unknown config key rank.compactness_weight"),
        ({"graph": {"weighting": "binary"}}, "unknown config key graph.weighting"),
        ({"dedupe_policy": "keep_any"}, "unknown config key dedupe_policy"),
        ({"group": {"split_components": False}}, "unknown config key group.split_components"),
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
        ({"rank": {"compactness_weight": float("nan")}}, [], "unknown config key rank.compactness_weight"),
        ({"train": {"collapse_weight": float("inf")}}, [], "train.collapse_weight must be finite"),
        ({"seed": -1, "synth": {"bogus": 1}}, [], "seed must be >= 0"),  # top level first
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
        ({"synth": {"planted": [5]}}, [], "synth.planted must be a list of objects"),
        ({"synth": {"planted": 5}}, [], "synth.planted must be a list of objects"),
        ({"synth": {"product_mean_range": 5}}, [], "product_mean_range must be a [low, high]"),
        ({"synth": {"product_mean_range": [1, "a"]}}, [], "product_mean_range must be a [low, high]"),
        ({"synth": {"product_mean_range": [1, 2, 3]}}, [], "product_mean_range must be a [low,"),
        ({"synth": {"product_mean_range": [4, 1]}}, [], "product_mean_range must be a [low, high]"),
        ({"synth": {"rating_noise_sd": -1}}, [], "rating_noise_sd must be >= 0"),
        (
            {"synth": {"planted": [{"size": 5, "n_targets": 0}]}}, [],
            "synth.planted.n_targets must be >= 1",
        ),
        ({"synth": {"reviews_per_reviewer": 0}}, [], "synth.reviews_per_reviewer must be in 1.."),
        ({"synth": {"horizon_days": 0}}, [], "synth.horizon_days must be >= 1"),
        ({"synth": {"n_products": 0}}, [], "synth.n_products must be >= 1"),
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


def test_synth_takes_out_and_seed_from_the_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def synth(cfg, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(path), *flags]) == 0

    def files(out):
        return [(tmp_path / out / f).read_bytes() for f in ("reviews.csv", "ground_truth.tsv")]

    section = {"n_reviewers": 200}
    synth({"out": "from_cfg", "seed": 3, "synth": section})
    synth({"synth": section}, "--out", "from_flags", "--seed", "3")
    synth({"out": "top_seed", "seed": 3, "synth": {**section, "seed": 9}})
    synth({"out": "ignored", "seed": 9, "synth": section}, "--out", "flags_win", "--seed", "3")
    synth({"synth": section}, "--out", "seed_0", "--seed", "0")
    assert not (tmp_path / "out").exists() and not (tmp_path / "ignored").exists()
    assert files("from_cfg") == files("from_flags") == files("top_seed") == files("flags_win")
    assert files("from_cfg") != files("seed_0")


@pytest.mark.parametrize(
    "cfg, named",
    [({"bogus": 1}, "unknown config key bogus"), ({"out": 5}, "out must be str")],
)
def test_synth_checks_the_config_top_level(tmp_path, monkeypatch, capsys, cfg, named):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "synth": {"n_reviewers": 60}}))
    rc = main(["synth", "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and named in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


COMMAND_EXTRA_ARGS = {
    "ingest": [],
    "detect": FAST_DETECT,
    "sweep": ["--k-list", "10"],
    "eval": ["--ranked", "ranked.jsonl"],
}


@pytest.mark.parametrize("command", list(COMMAND_EXTRA_ARGS))
@pytest.mark.parametrize(
    "section, named",
    [
        ({"bogus": 1}, "unknown config key synth.bogus"),
        ("x", "config section synth must be an object"),
        ({"n_reviewers": -5}, "synth.n_reviewers must be >= 0"),
    ],
)
def test_every_command_checks_the_synth_section(
    dataset, tmp_path, capsys, command, section, named
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synth": section}))
    out = tmp_path / "out"
    rc = main(
        [command, "--config", str(cfg_path), "--input", str(dataset / "reviews.csv"),
         "--out", str(out)] + COMMAND_EXTRA_ARGS[command]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and named in err, err
    assert not out.exists()


UNREADABLE_INPUTS = {
    "not_utf8": b"\xff\xfeu1,p1,5,-1,2014-01-01\n",
    "oversized_field": b"u1,p1,5,-1,2014-01-01\nu2,"
    + b"p" * (csv.field_size_limit() + 1)
    + b",5,-1,2014-01-02\n",
}


@pytest.mark.parametrize("command", list(COMMAND_EXTRA_ARGS))
@pytest.mark.parametrize("content", list(UNREADABLE_INPUTS))
def test_unreadable_input_fails_at_ingest_naming_the_file(tmp_path, capsys, command, content):
    src = tmp_path / "reviews.csv"
    src.write_bytes(UNREADABLE_INPUTS[content])
    out = tmp_path / "out"
    rc = main([command, "--input", str(src), "--out", str(out)] + COMMAND_EXTRA_ARGS[command])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ingest: {src}: "), err
    assert not out.exists()


def test_eval_unreadable_ranked_file_fails_at_eval_naming_it(dataset, tmp_path, capsys):
    ranked = tmp_path / "ranked.jsonl"
    ranked.write_bytes(b"\xff\xfe{}\n")
    out = tmp_path / "out"
    rc = main(["eval", "--input", str(dataset / "reviews.csv"), "--ranked", str(ranked),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: eval: {ranked}: 'utf-8' codec"), err
    assert not out.exists()


@pytest.mark.parametrize("command", [*COMMAND_EXTRA_ARGS, "synth"])
@pytest.mark.parametrize("below_a_file", [False, True])
@pytest.mark.parametrize("dangling_link", [False, True])
def test_out_that_cannot_be_a_directory_fails_at_config_before_ingest(
    dataset, tmp_path, monkeypatch, capsys, command, below_a_file, dangling_link
):
    def parse_reviews(*args, **kwargs):
        raise AssertionError("parse_reviews ran")

    monkeypatch.setattr(pipeline, "parse_reviews", parse_reviews)
    blocker = tmp_path / "out.txt"
    if dangling_link:  # a link to a missing path: Path.exists follows it and reads False
        blocker.symlink_to(tmp_path / "missing")
    else:
        blocker.write_text("")
    out = blocker / "sub" if below_a_file else blocker
    if command == "synth":
        args = ["--config", _small_synth_config(tmp_path)]
    else:
        args = ["--input", str(dataset / "reviews.csv"), *COMMAND_EXTRA_ARGS[command]]
    rc = main([command, *args, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: config: {out}: {blocker} is not a directory\n", err
    assert blocker.is_symlink() == dangling_link
    assert not (tmp_path / "missing").exists()
    assert dangling_link or blocker.read_text() == ""


def test_detect_runs_with_a_synth_section_that_synth_accepts(dataset, tmp_path):
    # the top-level seed stands in for synth.seed, as the synth command reads it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3, "synth": {"seed": -1, "n_reviewers": 60}}))
    assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "syn")]) == 0
    out = tmp_path / "det"
    rc = main(["detect", "--config", str(cfg_path), "--input", str(dataset / "reviews.csv"),
               "--out", str(out)] + FAST_DETECT)
    assert rc == 0
    assert (out / "ranked_groups.jsonl").exists()


@pytest.mark.parametrize(
    "command, flags",
    [("synth", ["--format", "tsv"]), ("detect", ["--input", "x.csv", "--weighting", "binary"])],
)
def test_command_rejects_a_flag_it_does_not_take(tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "o"), *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flags[-2]} {flags[-1]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _config_field(config, key):
    for part in key.split("."):
        config = getattr(config, part)
    return config


@pytest.mark.parametrize(
    "command, required",
    [("detect", []), ("sweep", ["--k-list", "10"]), ("eval", ["--ranked", "r.jsonl"])],
)
def test_every_config_flag_reaches_its_config_field(command, required):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defaults = PipelineConfig()
    reached = []
    for action in subparsers.choices[command]._actions:
        if not action.option_strings or action.dest in ("help", "config", "k_list", "ranked"):
            continue
        default = _config_field(defaults, action.dest)
        if action.nargs == 0:
            value, flag = True, [action.option_strings[0]]
        else:
            if action.choices:
                value = next(c for c in action.choices if c != default)
            elif isinstance(default, str):
                value = "flagged.csv"
            elif action.type is int:
                value = default + 1
            else:
                value = default / 2
            flag = [action.option_strings[0], str(value)]
        args = build_parser().parse_args([command, "--input", "x.csv", *required, *flag])
        assert _config_field(_pipeline_config(args), action.dest) == value != default
        reached.append(action.option_strings[0])
    assert len(reached) == {"detect": 17, "sweep": 17, "eval": 6}[command], reached


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
        ('{"graph": null}', ["--min-co-review", "3"], "section graph"),
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


@pytest.mark.parametrize("seed", [99, 0, "not a seed", [1, 2], 1.5, True, None])
def test_train_seed_is_an_unknown_config_key(seed):
    # training takes the seed derived from the top-level one; no config sets it
    with pytest.raises(StageError) as exc:
        PipelineConfig.from_dict({"input": "x.csv", "seed": 3, "train": {"seed": seed}})
    assert exc.value.stage == "config"
    assert str(exc.value) == "config: unknown config key train.seed"


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
    loaded = PipelineConfig.from_dict(load_config_file(path))
    assert loaded.to_dict() == cfg.to_dict()


def test_detect_stage_error_carries_stage(dataset):
    cfg = PipelineConfig(input=str(dataset / "reviews.csv"))
    cfg.graph.min_co_review = 10**6
    table, _, _ = load_table(cfg)
    with pytest.raises(StageError) as exc:
        detect(review_columns(table), cfg)
    assert exc.value.stage == "graph"


def test_node_feature_failure_is_graph_stage_error(dataset, monkeypatch):
    def node_features(graph, adj):
        raise RuntimeError("no features")

    monkeypatch.setattr(pipeline, "node_features", node_features)
    cfg = PipelineConfig(input=str(dataset / "reviews.csv"))
    table, _, _ = load_table(cfg)
    with pytest.raises(StageError) as exc:
        detect(review_columns(table), cfg)
    assert exc.value.stage == "graph"
    assert str(exc.value) == "graph: no features"
