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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import TrainConfig, save_checkpoint, train, write_assignment
from .graph import (
    WEIGHTING_MODES,
    adjacency_sparse,
    build_graph,
    node_features,
    node_id_str,
    write_graph,
)
from .indicators import write_indicators
from .reviews import DEDUPE_POLICIES, ReviewTable, dedupe, parse_reviews
from .scoring import (
    Ranking,
    ScoredGroup,
    attach_precision,
    extract_candidate_groups,
    rank_groups,
    score_groups,
    size_distribution,
)


class StageError(RuntimeError):
    """Pipeline failure annotated with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class GraphConfig:
    min_co_review: int = 2
    weighting: str = "co_review_count"
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
    size_floor: int = 20
    compactness_weight: float = 3.0

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
    burst_tau_days: int = 30
    graph: GraphConfig = field(default_factory=GraphConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    group: GroupConfig = field(default_factory=GroupConfig)
    rank: RankConfig = field(default_factory=RankConfig)

    def __post_init__(self):
        if self.burst_tau_days < 1:
            raise ValueError("burst_tau_days must be >= 1")
        if self.dedupe_policy not in DEDUPE_POLICIES:
            raise ValueError(
                f"dedupe_policy must be one of {DEDUPE_POLICIES}, got {self.dedupe_policy!r}"
            )

    def delimiter(self) -> str:
        if self.format not in ("csv", "tsv"):
            raise ValueError(f"unknown input format {self.format!r}")
        return "," if self.format == "csv" else "\t"

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
                section = dict(data.pop(name, {}))
                if name == "train":
                    section.pop("seed", None)  # training seed is derived from the top seed
                _check_keys(section_cls, section, prefix=f"{name}.")
                built[name] = section_cls(**section)
            _check_keys(cls, data)
            return cls(**built, **data)
        except (TypeError, ValueError) as err:  # TypeError: a value of the wrong type
            raise StageError("config", err) from err

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        payload = self.to_dict()
        payload.pop("out", None)  # output location does not affect results
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _check_keys(section_cls, section: dict, prefix: str = "") -> None:
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ValueError(f"unknown config key {prefix}{unknown[0]}")


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


@dataclass
class DetectResult:
    table: ReviewTable
    graph: object
    train_result: object
    scored: list[ScoredGroup]
    ranking: Ranking
    config: PipelineConfig
    train_seed: int


def detect(table: ReviewTable, config: PipelineConfig) -> DetectResult:
    """Graph build, clustering, extraction, scoring, ranking: one run."""
    try:
        graph = build_graph(
            table,
            min_co_review=config.graph.min_co_review,
            weighting=config.graph.weighting,
        )
        if not graph.edges:
            raise ValueError(
                "product-rating graph has no edges; lower min_co_review or check the data"
            )
    except StageError:
        raise
    except Exception as err:
        raise StageError("graph", err) from err

    train_seed = derive_train_seed(config.seed)
    try:
        adj = adjacency_sparse(graph)
        feats = node_features(graph)
        train_cfg = dataclasses.replace(config.train, seed=train_seed)
        result = train(adj, feats, train_cfg)
    except Exception as err:
        raise StageError("train", err) from err

    try:
        groups = extract_candidate_groups(
            graph,
            result.assignment,
            table,
            min_support=config.group.min_support,
            assign_threshold=config.train.assign_threshold,
            split_components=config.group.split_components,
        )
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
    except StageError:
        raise
    except Exception as err:
        raise StageError("score", err) from err

    return DetectResult(
        table=table,
        graph=graph,
        train_result=result,
        scored=scored,
        ranking=ranking,
        config=config,
        train_seed=train_seed,
    )


def _fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def write_manifest(path, result: DetectResult) -> None:
    manifest = {
        "package_version": __version__,
        "config": result.config.to_dict(),
        "config_hash": result.config.config_hash(),
        "seed": result.config.seed,
        "derived_train_seed": result.train_seed,
        "n_nodes": len(result.graph.nodes),
        "n_edges": len(result.graph.edges),
        "n_groups": len(result.scored),
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


def write_summary(path, result: DetectResult) -> None:
    """Plain-text report: top-group table, strongest groups, size histogram."""
    ranking = result.ranking
    lines = []
    lines.append(f"candidate groups: {len(ranking.full)}")
    lines.append(f"headline groups (size >= {result.config.rank.size_floor}): {len(ranking.headline)}")
    lines.append("")
    lines.append("top group")
    lines.append("Group Size\tPrecision")
    if ranking.headline:
        top = ranking.headline[0]
        lines.append(f"{top.size}\t{_fmt(top.precision)}")
    else:
        lines.append("none\tn/a")
    lines.append("")
    lines.append("top 10 groups")
    lines.append("rank\tgroup_id\tsize\tanomaly_score\tprecision")
    for rank, sg in enumerate(ranking.headline[:10], start=1):
        lines.append(
            f"{rank}\t{sg.group.group_id}\t{sg.size}\t{sg.anomaly_score:.4f}\t{_fmt(sg.precision)}"
        )
    lines.append("")
    lines.append("group size distribution (all candidates)")
    lines.append("bucket\tcount")
    for start, count in size_distribution(sg.size for sg in ranking.full).items():
        lines.append(f"{start}-{start + 9}\t{count}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_detect_report(result: DetectResult, out_dir) -> dict[str, Path]:
    """All artifacts of a detection run; returns the path of each."""
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
    write_manifest(paths["manifest"], result)
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
