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
from typing import Iterable, NamedTuple, Sequence, get_type_hints

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
    DEFAULT_WEIGHTING,
    WEIGHTING_MODES,
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
    extract_group,
    write_indicators,
)
from .modularity import modularity
from .reviews import DEDUPE_POLICIES, ReviewTable, dedupe, parse_reviews
from .scoring import (
    COMPACTNESS_WEIGHT,
    DEFAULT_SIZE_FLOOR,
    SIZE_BUCKET_WIDTH,
    Ranking,
    ScoredGroup,
    attach_precision,
    group_precision,
    rank_groups,
    score_groups,
    size_distribution,
)

np = lazy_import("numpy")

SWEEP_TOP_N = 10
INPUT_DELIMITERS = {"csv": ",", "tsv": "\t"}  # input format -> field delimiter


class StageError(RuntimeError):
    """Pipeline failure annotated with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class GraphConfig:
    min_co_review: int = 2
    weighting: str = DEFAULT_WEIGHTING
    dump: bool = False

    def __post_init__(self):
        if self.min_co_review < 1:
            raise ValueError("graph.min_co_review must be >= 1")
        if self.weighting not in WEIGHTING_MODES:
            raise ValueError(
                f"graph.weighting must be one of {WEIGHTING_MODES}, got {self.weighting!r}"
            )


@dataclass
class GroupConfig:
    min_support: int = 2
    split_components: bool = True

    def __post_init__(self):
        if self.min_support < 1:
            raise ValueError("group.min_support must be >= 1")


@dataclass
class RankConfig:
    size_floor: int = DEFAULT_SIZE_FLOOR
    compactness_weight: float = COMPACTNESS_WEIGHT

    def __post_init__(self):
        if self.size_floor < 0:
            raise ValueError("rank.size_floor must be >= 0")
        if self.compactness_weight < 0:
            raise ValueError("rank.compactness_weight must be >= 0")


@dataclass
class PipelineConfig:
    input: str = ""
    format: str = "csv"
    has_header: bool = False
    dedupe_policy: str = "keep_latest"
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
        if self.dedupe_policy not in DEDUPE_POLICIES:
            raise ValueError(
                f"dedupe_policy must be one of {DEDUPE_POLICIES}, got {self.dedupe_policy!r}"
            )

    def delimiter(self) -> str:
        return INPUT_DELIMITERS[self.format]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Build and validate a config; any bad key or value is a "config" StageError."""
        data = dict(data)
        data.pop("synth", None)  # synth section belongs to the generator command
        sections = {
            "graph": GraphConfig,
            "train": TrainConfig,
            "group": GroupConfig,
            "rank": RankConfig,
        }
        try:
            built = {}
            for name, section_cls in sections.items():
                section = data.pop(name, {})
                if not isinstance(section, dict):
                    raise ValueError(
                        f"config section {name} must be an object, not {type(section).__name__}"
                    )
                section = dict(section)
                if name == "train":
                    section.pop("seed", None)  # training seed is derived from the top seed
                check_config_section(section_cls, section, prefix=f"{name}.")
                built[name] = section_cls(**section)
            check_config_section(cls, data)
            return cls(**built, **data)
        except (TypeError, ValueError) as err:  # TypeError: a value of the wrong type
            raise StageError("config", err) from err

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_dict(load_config_file(path))

    def config_hash(self) -> str:
        payload = self.to_dict()
        payload.pop("out", None)  # output location does not affect results
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def load_config_file(path) -> dict:
    """The JSON object a config file holds; any other file is a "config" StageError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"top level must be a JSON object, not {type(data).__name__}")
    except (OSError, ValueError) as err:  # ValueError: malformed JSON or text
        raise StageError("config", ValueError(f"config file {path}: {err}")) from err
    return data


# accepted value types of a scalar config field; a bool is neither an int nor a float here
_FIELD_TYPES = {int: int, float: (int, float), bool: bool, str: str}


def check_config_section(section_cls, section: dict, prefix: str = "") -> None:
    """Reject an unknown key of a config dataclass, a value of the wrong type, or a NaN or inf."""
    types = get_type_hints(section_cls)  # one per dataclass field
    unknown = sorted(set(section) - set(types))
    if unknown:
        raise ValueError(f"unknown config key {prefix}{unknown[0]}")
    for key, value in section.items():
        accepted = _FIELD_TYPES.get(types[key])
        if accepted is None:
            continue
        if not isinstance(value, accepted) or (isinstance(value, bool) and types[key] is not bool):
            raise ValueError(
                f"{prefix}{key} must be {types[key].__name__}, not {type(value).__name__} {value!r}"
            )
        if types[key] is float and not math.isfinite(value):
            raise ValueError(f"{prefix}{key} must be finite, not {value!r}")


def derive_train_seed(seed: int) -> int:
    """Stage seeds descend from the one top-level seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def load_table(config: PipelineConfig) -> tuple[ReviewTable, list, ReviewTable]:
    """Parse and dedupe the configured input.

    Returns (raw table, row errors, deduped table); raises on an input
    with no valid reviews at all.
    """
    try:
        raw, errors = parse_reviews(
            config.input, delimiter=config.delimiter(), has_header=config.has_header
        )
    except OSError as err:
        raise StageError("ingest", err) from err
    if len(raw) == 0:
        raise StageError("ingest", ValueError(f"no valid reviews in {config.input!r}"))
    return raw, errors, dedupe(raw, config.dedupe_policy)


@contextmanager
def _stage(name: str):
    """Report any failure inside the block as a StageError of that stage."""
    try:
        yield
    except StageError:
        raise
    except Exception as err:
        raise StageError(name, err) from err


def extract_candidate_groups(
    graph: PRGraph, assignment, table: ReviewTable, config: PipelineConfig
) -> list[CandidateGroup]:
    """Clusters -> candidate groups, one per connected cluster piece.

    A cluster that mixes disconnected subgraphs cannot describe one
    collusive group (no co-review relation crosses the gap, and such a
    mixture always has zero compactness), so each cluster is split into
    its connected components before member extraction. Duplicate member
    sets, which overlapping assignments can produce, keep only their
    first occurrence. With group.split_components off, a whole cluster
    yields one group.
    """
    clusters = assign_clusters(assignment, threshold=config.train.assign_threshold)
    groups: list[CandidateGroup] = []
    seen: set[frozenset[str]] = set()
    for cluster_id in sorted(clusters):
        if config.group.split_components:
            pieces = connected_components(graph, clusters[cluster_id])
        else:
            pieces = [clusters[cluster_id]]
        for piece in pieces:
            group = extract_group(
                piece, graph, table, min_support=config.group.min_support, source_cluster=cluster_id
            )
            if group is None or group.members in seen:
                continue
            seen.add(group.members)
            group.group_id = len(groups)
            groups.append(group)
    return groups


def _graph_stage(table: ReviewTable, config: PipelineConfig):
    """The graph of a table, with the adjacency and node features training reads."""
    with _stage("graph"):
        graph = build_graph(
            table,
            min_co_review=config.graph.min_co_review,
            weighting=config.graph.weighting,
        )
        if not graph.edges:
            raise ValueError(
                "product-rating graph has no edges; lower min_co_review or check the data"
            )
    with _stage("train"):
        return graph, adjacency_sparse(graph), node_features(graph)


def _cluster_stage(
    graph: PRGraph, adj, feats, table: ReviewTable, config: PipelineConfig, n_clusters: int
) -> tuple[TrainResult, list[CandidateGroup]]:
    """Train k = n_clusters from the run's derived seed, then extract candidate groups."""
    with _stage("train"):
        train_cfg = dataclasses.replace(
            config.train, seed=derive_train_seed(config.seed), n_clusters=n_clusters
        )
        result = train(adj, feats, train_cfg)
    with _stage("score"):
        groups = extract_candidate_groups(graph, result.assignment, table, config)
    return result, groups


@dataclass
class DetectResult:
    graph: PRGraph
    train_result: TrainResult
    scored: list[ScoredGroup]
    ranking: Ranking
    config: PipelineConfig
    modularity_q: float  # Q of the trained assignment's argmax partition


def detect(table: ReviewTable, config: PipelineConfig) -> DetectResult:
    """Graph build, clustering, extraction, scoring, ranking: one run."""
    graph, adj, feats = _graph_stage(table, config)
    result, groups = _cluster_stage(graph, adj, feats, table, config, config.train.n_clusters)
    with _stage("score"):
        if not groups:
            raise ValueError("no candidate groups were extracted from the clusters")
        scored = score_groups(
            groups,
            table,
            tau_days=config.burst_tau_days,
            compactness_weight=config.rank.compactness_weight,
        )
        scored = attach_precision(scored, table)
        ranking = rank_groups(scored, size_floor=config.rank.size_floor)
    return DetectResult(
        graph=graph,
        train_result=result,
        scored=scored,
        ranking=ranking,
        config=config,
        modularity_q=modularity(adj, result.assignment.argmax(axis=1)),
    )


class SweepPoint(NamedTuple):
    n_clusters: int
    mean_top_precision: float | None
    n_groups: int
    partial: bool  # fewer than SWEEP_TOP_N candidate groups backed the mean


def sweep(table: ReviewTable, config: PipelineConfig, k_list: Sequence[int]) -> list[SweepPoint]:
    """Cluster-count sweep: detect's graph, train and extract stages at each k.

    Skips indicator scoring; for each k the precisions of the best
    SWEEP_TOP_N candidate groups are averaged. Requires labels.
    """
    if not table.has_labels():
        raise StageError("sweep", ValueError("dataset has no labels; sweep needs them"))
    graph, adj, feats = _graph_stage(table, config)
    points = []
    for k in k_list:
        _, groups = _cluster_stage(graph, adj, feats, table, config, k)
        precisions = sorted(
            (p for p in (group_precision(g, table) for g in groups) if p is not None),
            reverse=True,
        )
        best = precisions[:SWEEP_TOP_N]
        mean = sum(best) / len(best) if best else None
        points.append(SweepPoint(k, mean, len(groups), len(best) < SWEEP_TOP_N))
    return points


def ingest_counts(raw: ReviewTable, errors: list, table: ReviewTable) -> dict[str, int]:
    """The manifest's ingest counts, from the result of :func:`load_table`."""
    return {
        "n_rows_parsed": len(raw),
        "n_row_errors": len(errors),
        "n_duplicates_removed": len(raw) - len(table),
    }


def write_manifest(path, result: DetectResult, ingest: dict[str, int]) -> None:
    manifest = {
        **ingest,
        "package_version": __version__,
        "config": result.config.to_dict(),
        "config_hash": result.config.config_hash(),
        "seed": result.config.seed,
        "derived_train_seed": result.train_result.config.seed,
        "n_nodes": len(result.graph.nodes),
        "n_edges": len(result.graph.edges),
        "n_train_nodes": result.train_result.n_train_nodes,
        "n_isolated_nodes": len(result.graph.nodes) - result.train_result.n_train_nodes,
        "n_groups": len(result.scored),
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
                "n_products": len(sg.group.products),
                "anomaly_score": sg.anomaly_score,
                "compactness_norm": sg.compactness_norm,
                "deviation_norm": sg.deviation_norm,
                "burstness_norm": sg.burstness_norm,
                "compactness": sg.indicators.compactness,
                "review_tightness": sg.indicators.review_tightness,
                "product_tightness": sg.indicators.product_tightness,
                "neighbor_tightness": sg.indicators.neighbor_tightness,
                "avg_rating_deviation": sg.indicators.avg_rating_deviation,
                "avg_burstness": sg.indicators.avg_burstness,
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

    ``ingest`` holds the :func:`ingest_counts` of the table the run read.
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
    node_ids = [node_id_str(n) for n in result.graph.nodes]
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
