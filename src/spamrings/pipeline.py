"""End-to-end detection runs: config, orchestration, and report files.

One JSON config (plus a single top-level seed) fully determines a run;
the emitted manifest carries the effective config, its hash, and the
training loss trace so any report can be reproduced byte for byte.
Reports contain no timestamps and every collection is emitted in sorted
order for exactly that reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, get_args, get_origin, get_type_hints

from . import __version__
from ._lazy import lazy_import
from .clustering import (
    TrainConfig,
    TrainResult,
    assign_clusters,
    save_checkpoint,
    train,
    write_assignment,
)
from .graph import (
    PRGraph,
    adjacency_sparse,
    build_graph,
    connected_components,
    node_features,
    node_id_str,
    write_graph,
)
from .indicators import (
    DEFAULT_BURST_THRESHOLD_DAYS,
    CandidateGroup,
    ScoringIndex,
    extract_groups,
    write_indicators,
)
from .modularity import modularity
from .reviews import ReviewColumns, ReviewTable, dedupe, parse_reviews
from .scoring import (
    DEFAULT_SIZE_FLOOR,
    SIZE_BUCKET_WIDTH,
    Ranking,
    attach_precision,
    group_precision,
    rank_groups,
    score_groups,
    size_distribution,
)
from .synth import SynthConfig

np = lazy_import("numpy")

SWEEP_TOP_N = 10
INPUT_DELIMITERS = {"csv": ",", "tsv": "\t"}  # input format -> field delimiter


class StageError(RuntimeError):
    """A stage's failure, read as ``<stage>: [<file, flag or file line>: ]<cause>``."""

    def __init__(self, stage: str, cause: Exception, subject=None):
        # an OSError that carries a file name names its file already
        named = subject is None or getattr(cause, "filename", None) is not None
        super().__init__(f"{stage}: {cause}" if named else f"{stage}: {subject}: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str, subject=None):
    """Report any failure inside the block as a StageError of that stage, about ``subject``."""
    try:
        yield
    except StageError:
        raise
    except Exception as err:
        raise StageError(name, err, subject) from err


@dataclass
class GraphConfig:
    min_co_review: int = 2
    dump: bool = False

    def __post_init__(self):
        if self.min_co_review < 1:
            raise ValueError("graph.min_co_review must be >= 1")


@dataclass
class GroupConfig:
    min_support: int = 2

    def __post_init__(self):
        if self.min_support < 1:
            raise ValueError("group.min_support must be >= 1")


@dataclass
class RankConfig:
    size_floor: int = DEFAULT_SIZE_FLOOR

    def __post_init__(self):
        if self.size_floor < 0:
            raise ValueError("rank.size_floor must be >= 0")


@dataclass
class PipelineConfig:
    input: str = ""
    format: str = "csv"
    has_header: bool = False
    seed: int = 0
    out: str = "out"
    burst_tau_days: int = DEFAULT_BURST_THRESHOLD_DAYS
    graph: GraphConfig = field(default_factory=GraphConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    group: GroupConfig = field(default_factory=GroupConfig)
    rank: RankConfig = field(default_factory=RankConfig)

    def __post_init__(self):
        if self.format not in INPUT_DELIMITERS:
            raise ValueError(
                f"format must be one of {tuple(INPUT_DELIMITERS)}, got {self.format!r}"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.burst_tau_days < 1:
            raise ValueError("burst_tau_days must be >= 1")

    def delimiter(self) -> str:
        return INPUT_DELIMITERS[self.format]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Build and validate a config; any bad key or value is a "config" StageError."""
        top = {k: v for k, v in data.items() if k != "synth"}
        with _stage("config"):
            train = top.get("train")
            if isinstance(train, dict) and "seed" in train:
                # the training seed is derived from the top seed: an int is checked, then dropped
                build_config(TrainConfig, {"seed": train["seed"]}, "train.")
                top["train"] = {k: v for k, v in train.items() if k != "seed"}
            config = build_config(cls, top)
            if "synth" in data:  # the generator's section, checked after the top level
                synth_config(data)
            return config

    def config_hash(self) -> str:
        payload = self.to_dict()
        payload.pop("out", None)  # output location does not affect results
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def load_config_file(path) -> dict:
    """The JSON object a config file holds; any other file is a "config" StageError naming it."""
    with _stage("config", path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"top level must be a JSON object, not {type(data).__name__}")
    return data


# accepted value types of a scalar config field; a bool is neither an int nor a float here
_FIELD_TYPES = {int: int, float: (int, float), bool: bool, str: str}


def build_config(cls, data, prefix: str = ""):
    """Config dataclass ``cls`` from a JSON object; its dataclass fields, and lists of them, alike.

    An unknown key, a value of the wrong type, or a NaN or inf is a
    ValueError naming the dotted key; ``cls`` checks the values' ranges.
    """
    if not isinstance(data, dict):
        name = prefix.rstrip(".")
        raise ValueError(f"config section {name} must be an object, not {type(data).__name__}")
    types = get_type_hints(cls)  # one per dataclass field
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown config key {prefix}{unknown[0]}")
    kwargs = {}
    for key, value in data.items():
        hint = types[key]
        accepted = _FIELD_TYPES.get(hint)
        if dataclasses.is_dataclass(hint):
            value = build_config(hint, value, f"{prefix}{key}.")
        elif get_origin(hint) is list and dataclasses.is_dataclass(get_args(hint)[0]):
            if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
                raise ValueError(f"{prefix}{key} must be a list of objects, not {value!r}")
            value = [build_config(get_args(hint)[0], v, f"{prefix}{key}.") for v in value]
        elif accepted is not None:
            if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
                raise ValueError(
                    f"{prefix}{key} must be {hint.__name__}, not {type(value).__name__} {value!r}"
                )
            if hint is float and not math.isfinite(value):
                raise ValueError(f"{prefix}{key} must be finite, not {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def synth_config(data: dict) -> SynthConfig:
    """The generator's config from the ``synth`` section; a top-level seed stands in for its seed.

    A bad key or value raises as in :func:`build_config`.
    """
    section = data.get("synth", {})
    if "seed" in data and isinstance(section, dict):
        section = {**section, "seed": data["seed"]}
    return build_config(SynthConfig, section, prefix="synth.")


def derive_train_seed(seed: int) -> int:
    """Stage seeds descend from the one top-level seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def load_table(config: PipelineConfig) -> tuple[ReviewTable, list, dict[str, int]]:
    """Parse and dedupe the configured input.

    Returns (deduped table, row errors, ingest counts), the counts under
    the manifest's keys. An unreadable file, or one with no valid review at
    all, is an "ingest" StageError naming it.
    """
    with _stage("ingest", config.input):
        raw, errors = parse_reviews(
            config.input, delimiter=config.delimiter(), has_header=config.has_header
        )
        if len(raw) == 0:
            raise ValueError("no valid reviews")
        table = dedupe(raw)
    return table, errors, {
        "n_rows_parsed": len(raw),
        "n_row_errors": len(errors),
        "n_duplicates_removed": len(raw) - len(table),
    }


def extract_candidate_groups(
    graph: PRGraph, assignment, index: ScoringIndex, config: PipelineConfig
) -> list[CandidateGroup]:
    """Clusters -> candidate groups, one per connected cluster piece.

    A cluster that mixes disconnected subgraphs cannot describe one
    collusive group (no co-review relation crosses the gap, and such a
    mixture always has zero compactness), so each cluster is split into
    its connected components before member extraction. Duplicate member
    sets, which overlapping assignments can produce, keep only their
    first occurrence. Every piece of every cluster is extracted at once.
    """
    pieces: list[set[int]] = []
    sources: list[int] = []
    clusters = assign_clusters(assignment, threshold=config.train.assign_threshold)
    for cluster_id, nodes in clusters.items():
        split = connected_components(graph, nodes)
        pieces += split
        sources += [cluster_id] * len(split)
    extracted = extract_groups(pieces, graph, index, config.group.min_support)
    groups: list[CandidateGroup] = []
    seen: set[bytes] = set()  # member rows
    for cluster_id, group in zip(sources, extracted):
        if group is None or group.member_products.tobytes() in seen:
            continue
        seen.add(group.member_products.tobytes())
        group.source_cluster, group.group_id = cluster_id, len(groups)
        groups.append(group)
    return groups


def _graph_stage(table: ReviewColumns, config: PipelineConfig):
    """The graph of a table, with the adjacency and node features training reads."""
    with _stage("graph"):
        graph = build_graph(table, min_co_review=config.graph.min_co_review)
        if graph.co_review.nnz == 0:
            raise ValueError(
                "product-rating graph has no edges; lower min_co_review or check the data"
            )
        adj = adjacency_sparse(graph)
        return graph, adj, node_features(graph, adj)


def _train_stage(adj, feats, config: PipelineConfig, n_clusters: int) -> TrainResult:
    """Train k = n_clusters from the run's derived seed."""
    with _stage("train"):
        train_cfg = dataclasses.replace(
            config.train, seed=derive_train_seed(config.seed), n_clusters=n_clusters
        )
        return train(adj, feats, train_cfg)


@dataclass
class DetectResult:
    graph: PRGraph
    train_result: TrainResult
    ranking: Ranking
    config: PipelineConfig
    modularity_q: float  # Q of the trained assignment's argmax partition


def detect(table: ReviewColumns, config: PipelineConfig) -> DetectResult:
    """Graph build, clustering, extraction, scoring, ranking: one run on a table's columns."""
    graph, adj, feats = _graph_stage(table, config)
    result = _train_stage(adj, feats, config, config.train.n_clusters)
    with _stage("score"):
        index = ScoringIndex(table)  # after training, into the memory training freed
        groups = extract_candidate_groups(graph, result.assignment, index, config)
        if not groups:
            raise ValueError("no candidate groups were extracted from the clusters")
        scored = score_groups(groups, tau_days=config.burst_tau_days)
        scored = attach_precision(scored)
        ranking = rank_groups(scored, size_floor=config.rank.size_floor)
    return DetectResult(
        graph=graph,
        train_result=result,
        ranking=ranking,
        config=config,
        modularity_q=modularity(adj, result.assignment.argmax(axis=1)),
    )


class SweepPoint(NamedTuple):
    n_clusters: int
    mean_top_precision: float | None
    n_groups: int
    partial: bool  # fewer than SWEEP_TOP_N candidate groups backed the mean


def sweep(table: ReviewColumns, config: PipelineConfig, k_list: Sequence[int]) -> list[SweepPoint]:
    """Cluster-count sweep: detect's graph, train and extract stages at each k.

    Skips indicator scoring; for each k the precisions of the best
    SWEEP_TOP_N candidate groups are averaged. Requires labels.
    """
    if not table.has_labels():
        raise StageError("sweep", ValueError("dataset has no labels; sweep needs them"))
    graph, adj, feats = _graph_stage(table, config)
    with _stage("score"):
        index = ScoringIndex(table)
    points = []
    for k in k_list:
        result = _train_stage(adj, feats, config, k)
        with _stage("score"):
            groups = extract_candidate_groups(graph, result.assignment, index, config)
        precisions = sorted(
            (p for p in map(group_precision, groups) if p is not None), reverse=True
        )
        best = precisions[:SWEEP_TOP_N]
        mean = sum(best) / len(best) if best else None
        points.append(SweepPoint(k, mean, len(groups), len(best) < SWEEP_TOP_N))
    return points


def write_manifest(path, result: DetectResult, ingest: dict[str, int]) -> None:
    manifest = {
        **ingest,
        "package_version": __version__,
        "config": result.config.to_dict(),
        "config_hash": result.config.config_hash(),
        "seed": result.config.seed,
        "derived_train_seed": result.train_result.config.seed,
        "n_nodes": len(result.graph.node_keys),
        "n_edges": result.graph.co_review.nnz // 2,
        "n_train_nodes": result.train_result.n_train_nodes,
        "n_isolated_nodes": len(result.graph.node_keys) - result.train_result.n_train_nodes,
        "n_groups": len(result.ranking.full),
        "modularity_q": result.modularity_q,
        "initial_loss": result.train_result.initial_loss,
        "final_loss": result.train_result.final_loss,
        "loss_trace": result.train_result.loss_trace,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_ranked_groups(path, result: DetectResult) -> None:
    """Line-delimited records, strongest group first, full dump."""
    floor = result.config.rank.size_floor
    with open(path, "w", encoding="utf-8") as fh:
        for rank, sg in enumerate(result.ranking.full, start=1):
            record = {
                "rank": rank,
                "group_id": sg.group.group_id,
                "cluster": sg.group.source_cluster,
                "size": sg.size,
                "n_products": sg.group.n_products,
                "anomaly_score": sg.anomaly_score,
                "compactness_norm": sg.compactness_norm,
                "deviation_norm": sg.deviation_norm,
                "burstness_norm": sg.burstness_norm,
                **dataclasses.asdict(sg.indicators),
                "precision": sg.precision,
                "headline": sg.size >= floor,
                "members": sorted(sg.group.members),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def format_precision(x: float | None) -> str:
    """A precision as printed in every report: four decimals, or n/a without labels."""
    return "n/a" if x is None else f"{x:.4f}"


def _headline_lines(floor: int, headline: Sequence[tuple[int, float | None]]) -> list[str]:
    """Headline count and top-group row; headline holds (size, precision) in rank order."""
    top = f"{headline[0][0]}\t{format_precision(headline[0][1])}" if headline else "none\tn/a"
    return [
        f"headline groups (size >= {floor}): {len(headline)}",
        "",
        "top group",
        "Group Size\tPrecision",
        top,
    ]


def _histogram_lines(title: str, sizes: Iterable[int]) -> list[str]:
    lines = [title, "bucket\tcount"]
    for start, count in size_distribution(sizes).items():
        lines.append(f"{start}-{start + SIZE_BUCKET_WIDTH - 1}\t{count}")
    return lines


def write_lines(path, lines: list[str]) -> str:
    """Write lines as one newline-terminated text file; returns the text."""
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


def write_summary(path, result: DetectResult) -> None:
    """Plain-text report: top-group table, strongest groups, size histogram."""
    ranking = result.ranking
    lines = [f"candidate groups: {len(ranking.full)}"]
    lines += _headline_lines(
        result.config.rank.size_floor, [(sg.size, sg.precision) for sg in ranking.headline]
    )
    lines += ["", "top 10 groups", "rank\tgroup_id\tsize\tanomaly_score\tprecision"]
    for rank, sg in enumerate(ranking.headline[:10], start=1):
        lines.append(
            f"{rank}\t{sg.group.group_id}\t{sg.size}\t{sg.anomaly_score:.4f}\t"
            f"{format_precision(sg.precision)}"
        )
    lines.append("")
    lines += _histogram_lines(
        "group size distribution (all candidates)", (sg.size for sg in ranking.full)
    )
    write_lines(path, lines)


def write_eval_summary(path, rows: Sequence[tuple[int, int, int, float | None]], floor: int) -> str:
    """Precision report of ranked (rank, group_id, size, precision) rows; returns its text."""
    lines = [f"groups: {len(rows)}"]
    lines += _headline_lines(floor, [(size, p) for _, _, size, p in rows if size >= floor])
    lines += ["", "rank\tgroup_id\tsize\tprecision"]
    for rank, gid, size, precision in rows:
        lines.append(f"{rank}\t{gid}\t{size}\t{format_precision(precision)}")
    lines.append("")
    lines += _histogram_lines("group size distribution", (size for _, _, size, _ in rows))
    return write_lines(path, lines)


def write_detect_report(result: DetectResult, out_dir, ingest: dict[str, int]) -> dict[str, Path]:
    """All artifacts of a detection run; returns the path of each.

    ``ingest`` holds the :func:`load_table` counts of the table the run read.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "manifest": out / "manifest.json",
        "ranked": out / "ranked_groups.jsonl",
        "summary": out / "summary.txt",
        "indicators": out / "indicators.tsv",
        "assignment": out / "assignment.csv",
        "checkpoint": out / "checkpoint.npz",
    }
    write_manifest(paths["manifest"], result, ingest)
    write_ranked_groups(paths["ranked"], result)
    write_summary(paths["summary"], result)
    write_indicators(
        paths["indicators"], [(sg.group, sg.indicators) for sg in result.ranking.full]
    )
    node_ids = list(map(node_id_str, result.graph.keys))
    write_assignment(
        paths["assignment"],
        node_ids,
        result.train_result.assignment,
        result.config.train.assign_threshold,
    )
    save_checkpoint(paths["checkpoint"], result.train_result)
    if result.config.graph.dump:
        paths["graph_edges"] = out / "graph_edges.tsv"
        paths["graph_nodes"] = out / "graph_nodes.tsv"
        write_graph(result.graph, paths["graph_edges"], paths["graph_nodes"])
    return paths
