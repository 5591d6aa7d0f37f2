"""Command-line front end: ingest, detect, sweep, synth, eval.

Flags mirror the JSON config keys one-to-one: a config flag's dest is its
key, dotted under a section (``train.n_clusters``). A flag given on the
command line overrides the config file, which overrides the defaults.
Exit status is nonzero exactly when a stage failed.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import os
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path

from .indicators import ReviewerIndex
from .pipeline import (
    INPUT_DELIMITERS,
    PipelineConfig,
    StageError,
    _stage,
    detect,
    format_precision,
    load_config_file,
    load_table,
    sweep,
    synth_config,
    write_detect_report,
    write_eval_summary,
    write_lines,
)
from .reviews import (
    LABEL_FAKE,
    LABEL_GENUINE,
    LABEL_UNKNOWN,
    ReviewColumns,
    review_columns,
    write_reviews,
)
from .synth import SynthConfig, generate, write_ground_truth


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="top-level seed (stage seeds derive from it)")
    parser.add_argument("--out", help="output directory")


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="review metadata file")
    parser.add_argument("--format", choices=tuple(INPUT_DELIMITERS), help="input delimiter family")
    parser.add_argument(
        "--header", dest="has_header", action="store_true", default=None, help="skip a header row"
    )


def _add_detect_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--min-co-review", dest="graph.min_co_review", type=int,
        help="edge threshold on shared reviewers",
    )
    parser.add_argument(
        "--dump-graph", dest="graph.dump", action="store_true", default=None,
        help="write edge/node dump",
    )
    parser.add_argument("--n-clusters", dest="train.n_clusters", type=int, help="cluster count k")
    parser.add_argument("--hidden-width", dest="train.hidden_width", type=int)
    parser.add_argument("--epochs", dest="train.epochs", type=int)
    parser.add_argument(
        "--assign-threshold", dest="train.assign_threshold", type=float,
        help="extra-membership probability cutoff",
    )
    parser.add_argument(
        "--min-support", dest="group.min_support", type=int,
        help="cluster nodes a member must appear in",
    )
    parser.add_argument(
        "--size-floor", dest="rank.size_floor", type=int, help="smallest headline group size"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spamrings",
        description="Detect collusive fake-reviewer groups in review metadata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, validate, and dedupe a review file")
    _add_common(p)
    _add_input(p)

    p = sub.add_parser("detect", help="run the full detection pipeline")
    _add_common(p)
    _add_input(p)
    _add_detect_options(p)

    p = sub.add_parser("sweep", help="cluster-count sweep on a labeled dataset")
    _add_common(p)
    _add_input(p)
    _add_detect_options(p)
    p.add_argument("--k-list", required=True, help="comma-separated cluster counts, e.g. 10,20,40")

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted groups")
    _add_common(p)

    p = sub.add_parser("eval", help="precision report for a ranked-groups file")
    _add_common(p)
    _add_input(p)
    p.add_argument("--ranked", required=True, help="ranked_groups.jsonl from a detect run")
    p.add_argument("--size-floor", dest="rank.size_floor", type=int)

    return parser


def _merged_config(args) -> dict:
    """The config file's object, with each flag that was given laid over it."""
    data = load_config_file(args.config) if args.config else {}
    top_level = {f.name for f in dataclasses.fields(PipelineConfig)}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is None or (not section and key not in top_level):
            continue
        if not section:
            data[key] = value
        elif isinstance(data.get(section, {}), dict):  # from_dict rejects any other section
            data[section] = {**data.get(section, {}), key: value}
    return data


def _pipeline_config(args) -> PipelineConfig:
    """Config file merged with the flags, validated once before any stage runs."""
    config = PipelineConfig.from_dict(_merged_config(args))
    if not config.input:
        raise StageError("config", ValueError("no input file given (--input or config)"))
    _check_out(config.out)
    return config


def _check_out(out: str) -> None:
    """Fail at "config" if ``out``, or its nearest existing ancestor, is not a directory."""
    with _stage("config", out):
        path = Path(out).absolute()
        # lexists: a dangling symlink exists, and is no directory to write in
        nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not nearest.is_dir():
            raise ValueError(f"{nearest} is not a directory")


def _out_dir(config: PipelineConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    config = _pipeline_config(args)
    table, errors, ingest = load_table(config)
    out = _out_dir(config)
    write_reviews(table, out / "reviews_clean.csv")
    counts = Counter(map(itemgetter(4), table.reviews))
    lines = [
        f"rows_parsed: {ingest['n_rows_parsed']}",
        f"row_errors: {ingest['n_row_errors']}",
        f"reviews_after_dedupe: {len(table)}",
        f"duplicates_removed: {ingest['n_duplicates_removed']}",
        f"reviewers: {len(set(map(itemgetter(0), table.reviews)))}",
        f"products: {len(set(map(itemgetter(1), table.reviews)))}",
    ]
    fake, genuine = counts[LABEL_FAKE], counts[LABEL_GENUINE]
    if fake or genuine:
        lines.append(f"labels: fake={fake} genuine={genuine} unknown={counts[LABEL_UNKNOWN]}")
    else:
        lines.append("labels: none; evaluation disabled")
    for err in errors[:20]:
        lines.append(f"row_error line {err.line}: {err.message}")
    sys.stdout.write(write_lines(out / "ingest_summary.txt", lines))
    return 0


def _load_columns(config: PipelineConfig) -> tuple[ReviewColumns, dict[str, int]]:
    """The configured input's columns and ingest counts (see ``load_table``).

    The row table is freed on return, before any stage loads numpy.
    """
    table, _, ingest = load_table(config)
    return review_columns(table), ingest


def cmd_detect(args) -> int:
    config = _pipeline_config(args)
    table, ingest = _load_columns(config)
    result = detect(table, config)
    paths = write_detect_report(result, config.out, ingest)
    top = result.ranking.headline[0] if result.ranking.headline else None
    sys.stdout.write(
        f"groups: {len(result.ranking.full)} headline: {len(result.ranking.headline)}\n"
    )
    if top is not None:
        sys.stdout.write(
            f"top group: size {top.size} score {top.anomaly_score:.4f} "
            f"precision {format_precision(top.precision)}\n"
        )
    sys.stdout.write(f"report: {paths['summary']}\n")
    return 0


def _k_list(config: PipelineConfig, text: str) -> list[int]:
    """Cluster counts of --k-list, each checked by the training config's own rule."""
    with _stage("config", "--k-list"):
        k_list = [int(k) for k in text.split(",") if k.strip()]
        if not k_list:
            raise ValueError("no cluster counts given")
        for k in k_list:
            dataclasses.replace(config.train, n_clusters=k)
    return k_list


def cmd_sweep(args) -> int:
    config = _pipeline_config(args)
    k_list = _k_list(config, args.k_list)
    table, _ = _load_columns(config)
    points = sweep(table, config, k_list)
    lines = ["k\tmean_top10_precision\tn_groups\tpartial"]
    for p in points:
        mean = format_precision(p.mean_top_precision)
        lines.append(f"{p.n_clusters}\t{mean}\t{p.n_groups}\t{int(p.partial)}")
    sys.stdout.write(write_lines(_out_dir(config) / "sweep.tsv", lines))
    return 0


def _synth_config(args) -> tuple[SynthConfig, PipelineConfig]:
    """The generator's config, and the top level checked as every command checks it.

    A bad ``synth`` section, the top-level seed that overrides ``synth.seed``
    included, is a "synth" StageError; any other bad top-level key or value
    is a "config" StageError. No input file is needed.
    """
    data = _merged_config(args)
    with _stage("synth"):
        synth = synth_config(data)
    config = PipelineConfig.from_dict(data)
    _check_out(config.out)
    return synth, config


def cmd_synth(args) -> int:
    synth, config = _synth_config(args)
    table, truth = generate(synth)
    out = _out_dir(config)
    write_reviews(table, out / "reviews.csv")
    write_ground_truth(out / "ground_truth.tsv", truth)
    sys.stdout.write(
        f"reviews: {len(table)} reviewers: {len(set(map(itemgetter(0), table.reviews)))} "
        f"planted_groups: {len(truth)}\n"
    )
    return 0


def _ranked_records(path) -> list[tuple[int, int, int, list[str]]]:
    """(line, rank, group_id, member names) of each record in a ranked-groups file.

    A file that cannot be read or holds no record is an "eval" StageError
    naming the file; a line that is not a JSON object with an int rank and
    group_id and a list of member names is one naming the file and the
    1-based line.
    """
    with _stage("eval", path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        with _stage("eval", f"{path} line {lineno}"):
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
            missing = [key for key in ("rank", "group_id", "members") if key not in rec]
            if missing:
                raise ValueError(f"no {missing[0]!r} key")
            rank, group_id, names = rec["rank"], rec["group_id"], rec["members"]
            for key, value in (("rank", rank), ("group_id", group_id)):
                if type(value) is not int:  # not isinstance: bool is an int subclass
                    raise ValueError(f"{key} must be an int, not {value!r}")
            if not isinstance(names, list) or not all(isinstance(m, str) for m in names):
                raise ValueError(f"members must be a list of strings, not {names!r}")
            records.append((lineno, rank, group_id, names))
    if not records:
        raise StageError("eval", ValueError("no records"), path)
    return records


def cmd_eval(args) -> int:
    config = _pipeline_config(args)
    records = _ranked_records(args.ranked)  # before the review file, as sweep checks --k-list
    table, _ = _load_columns(config)
    if not table.has_labels():
        raise StageError("eval", ValueError("dataset has no labels; evaluation needs them"))
    index = ReviewerIndex(table)
    rows = []
    for lineno, rank, group_id, names in records:
        with _stage("eval", f"{args.ranked} line {lineno}"):
            members = index.rows(names)
        rows.append((rank, group_id, len(members), index.precision(members)))
    text = write_eval_summary(_out_dir(config) / "eval_summary.txt", rows, config.rank.size_floor)
    sys.stdout.write(text)
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "detect": cmd_detect,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


# Read by OpenBLAS, OpenMP and MKL when numpy or scipy loads its BLAS library.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A command is a one-shot process. Freezing at exit moves every live
    # object into the permanent generation, which no collection walks, so
    # the shutdown collections (a full pass with the collector on, and the
    # ones module teardown forces even with it off) skip all that the numpy
    # and scipy imports made. Nothing is frozen before exit; the hook is
    # registered once however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    # The stages' matrices are too small for BLAS threads to pay, so a
    # command runs BLAS on one thread unless the caller set a thread count.
    # No stage has loaded numpy yet, and the library reads the count when
    # it loads; the environment is restored when the command ends.
    pinned = () if any(var in os.environ for var in BLAS_THREAD_VARS) else BLAS_THREAD_VARS
    os.environ.update(dict.fromkeys(pinned, "1"))
    # The stages make no reference cycles, so reference counting frees all
    # they allocate, and the cyclic collector would only walk the review
    # table over and over. It is off for the command and restored after.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with _stage(args.command):  # a failure outside every stage names the command
            return COMMANDS[args.command](args)
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()
        for var in pinned:
            os.environ.pop(var, None)


if __name__ == "__main__":
    sys.exit(main())
