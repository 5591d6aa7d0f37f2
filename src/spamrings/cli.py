"""Command-line front end: ingest, detect, sweep, synth, eval.

Flags mirror the JSON config keys one-to-one; a flag given on the command
line overrides the config file, which overrides the defaults. Exit status
is nonzero exactly when a stage failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .graph import WEIGHTING_MODES
from .indicators import group_from_table
from .pipeline import (
    INPUT_DELIMITERS,
    PipelineConfig,
    StageError,
    check_config_section,
    detect,
    format_precision,
    ingest_counts,
    load_config_file,
    load_table,
    sweep,
    write_detect_report,
    write_eval_summary,
    write_lines,
)
from .reviews import ReviewTable, write_reviews
from .scoring import group_precision
from .synth import PlantedGroupConfig, SynthConfig, generate, write_ground_truth


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="top-level seed (stage seeds derive from it)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=tuple(INPUT_DELIMITERS), help="input delimiter family")


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="review metadata file")
    parser.add_argument("--header", action="store_true", default=None, help="skip a header row")


def _add_detect_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-co-review", type=int, help="edge threshold on shared reviewers")
    parser.add_argument("--weighting", choices=WEIGHTING_MODES, help="edge weight mode")
    parser.add_argument("--dump-graph", action="store_true", default=None, help="write edge/node dump")
    parser.add_argument("--n-clusters", type=int, help="cluster count k")
    parser.add_argument("--hidden-width", type=int)
    parser.add_argument("--learning-rate", type=float)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--dropout-rate", type=float)
    parser.add_argument("--collapse-weight", type=float)
    parser.add_argument("--assign-threshold", type=float, help="extra-membership probability cutoff")
    parser.add_argument("--min-support", type=int, help="cluster nodes a member must appear in")
    parser.add_argument("--size-floor", type=int, help="smallest headline group size")
    parser.add_argument("--burst-tau-days", type=int)


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
    p.add_argument("--size-floor", type=int)

    return parser


def _load_config_dict(args) -> dict:
    return load_config_file(args.config) if args.config else {}


def _pipeline_config(args) -> PipelineConfig:
    """Config file merged with the flags, validated once before any stage runs."""
    data = _load_config_dict(args)
    overrides = {
        "seed": (None, "seed"),
        "out": (None, "out"),
        "format": (None, "format"),
        "input": (None, "input"),
        "header": (None, "has_header"),
        "min_co_review": ("graph", "min_co_review"),
        "weighting": ("graph", "weighting"),
        "dump_graph": ("graph", "dump"),
        "n_clusters": ("train", "n_clusters"),
        "hidden_width": ("train", "hidden_width"),
        "learning_rate": ("train", "learning_rate"),
        "epochs": ("train", "epochs"),
        "dropout_rate": ("train", "dropout_rate"),
        "collapse_weight": ("train", "collapse_weight"),
        "assign_threshold": ("train", "assign_threshold"),
        "min_support": ("group", "min_support"),
        "size_floor": ("rank", "size_floor"),
        "burst_tau_days": (None, "burst_tau_days"),
    }
    for arg_name, (section, key) in overrides.items():
        value = getattr(args, arg_name, None)
        if value is None:
            continue
        if section is None:
            data[key] = value
        elif isinstance(data.get(section, {}), dict):  # from_dict rejects any other section
            data[section] = {**data.get(section, {}), key: value}
    config = PipelineConfig.from_dict(data)
    if not config.input:
        raise StageError("config", ValueError("no input file given (--input or config)"))
    return config


def _out_dir(config: PipelineConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    config = _pipeline_config(args)
    raw, errors, table = load_table(config)
    out = _out_dir(config)
    write_reviews(table, out / "reviews_clean.csv")
    counts = table.label_counts()
    lines = [
        f"rows_parsed: {len(raw)}",
        f"row_errors: {len(errors)}",
        f"reviews_after_dedupe: {len(table)}",
        f"duplicates_removed: {len(raw) - len(table)}",
        f"reviewers: {len({r.reviewer_id for r in table.reviews})}",
        f"products: {len({r.product_id for r in table.reviews})}",
    ]
    if table.has_labels():
        lines.append(
            f"labels: fake={counts['fake']} genuine={counts['genuine']} unknown={counts['unknown']}"
        )
    else:
        lines.append("labels: none; evaluation disabled")
    for err in errors[:20]:
        lines.append(f"row_error line {err.line}: {err.message}")
    sys.stdout.write(write_lines(out / "ingest_summary.txt", lines))
    return 0


def cmd_detect(args) -> int:
    config = _pipeline_config(args)
    raw, errors, table = load_table(config)
    result = detect(table, config)
    paths = write_detect_report(result, config.out, ingest_counts(raw, errors, table))
    top = result.ranking.headline[0] if result.ranking.headline else None
    sys.stdout.write(
        f"groups: {len(result.scored)} headline: {len(result.ranking.headline)}\n"
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
    try:
        k_list = [int(k) for k in text.split(",") if k.strip()]
        if not k_list:
            raise ValueError("no cluster counts given")
        for k in k_list:
            dataclasses.replace(config.train, n_clusters=k)
    except ValueError as err:
        raise StageError("config", ValueError(f"bad --k-list {text!r}: {err}")) from err
    return k_list


def cmd_sweep(args) -> int:
    config = _pipeline_config(args)
    k_list = _k_list(config, args.k_list)
    _, _, table = load_table(config)
    points = sweep(table, config, k_list)
    lines = ["k\tmean_top10_precision\tn_groups\tpartial"]
    for p in points:
        mean = format_precision(p.mean_top_precision)
        lines.append(f"{p.n_clusters}\t{mean}\t{p.n_groups}\t{int(p.partial)}")
    sys.stdout.write(write_lines(_out_dir(config) / "sweep.tsv", lines))
    return 0


def _synth_config(args) -> SynthConfig:
    kwargs = _load_config_dict(args).get("synth", {})
    if not isinstance(kwargs, dict):
        raise ValueError(f"config section synth must be an object, not {type(kwargs).__name__}")
    if args.seed is not None:
        kwargs["seed"] = args.seed
    check_config_section(SynthConfig, kwargs, prefix="synth.")
    if "planted" in kwargs:
        for p in kwargs["planted"]:
            check_config_section(PlantedGroupConfig, p, prefix="synth.planted.")
        kwargs["planted"] = [PlantedGroupConfig(**p) for p in kwargs["planted"]]
    if "product_mean_range" in kwargs:
        kwargs["product_mean_range"] = tuple(kwargs["product_mean_range"])
    return SynthConfig(**kwargs)


def cmd_synth(args) -> int:
    try:
        config = _synth_config(args)
    except (TypeError, ValueError) as err:
        raise StageError("synth", err if isinstance(err, ValueError) else ValueError(str(err))) from err
    table, truth = generate(config)
    out = Path(args.out if args.out else "out")
    out.mkdir(parents=True, exist_ok=True)
    write_reviews(table, out / "reviews.csv")
    write_ground_truth(out / "ground_truth.tsv", truth)
    sys.stdout.write(
        f"reviews: {len(table)} reviewers: {len(table.by_reviewer)} "
        f"planted_groups: {len(truth)}\n"
    )
    return 0


def _ranked_rows(path, table: ReviewTable) -> list[tuple[int, int, int, float | None]]:
    """(rank, group_id, size, precision) of each record in a ranked-groups file.

    A line that is not a JSON object with rank, group_id and members, or
    that names a member with no review in the table, is an "eval"
    StageError naming the file and the 1-based line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise StageError("eval", err) from err
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
            group = group_from_table(rec["members"], table)
            rows.append((rec["rank"], rec["group_id"], group.size, group_precision(group, table)))
        except KeyError as err:
            raise StageError("eval", ValueError(f"{path} line {lineno}: no {err} key")) from err
        except (TypeError, ValueError) as err:
            raise StageError("eval", ValueError(f"{path} line {lineno}: {err}")) from err
    if not rows:
        raise StageError("eval", ValueError(f"no records in {path!r}"))
    return rows


def cmd_eval(args) -> int:
    config = _pipeline_config(args)
    _, _, table = load_table(config)
    if not table.has_labels():
        raise StageError("eval", ValueError("dataset has no labels; evaluation needs them"))
    rows = _ranked_rows(args.ranked, table)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # surface unexpected failures with the command name
        print(f"error: {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
