"""Score normalization, anomaly ranking, and label-based precision.

Compactness, rating deviation, and burstness are min-max scaled across
the whole candidate population of a run, then combined into the anomaly
score 3 * compactness + deviation + burstness in [0, 5]. Ranking is
deterministic: score descending, then larger group, then group id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

from .indicators import CandidateGroup, IndicatorVector, group_indicators

COMPACTNESS_WEIGHT = 3.0
DEFAULT_SIZE_FLOOR = 20
SIZE_BUCKET_WIDTH = 10


@dataclass
class ScoredGroup:
    group: CandidateGroup
    indicators: IndicatorVector
    compactness_norm: float
    deviation_norm: float
    burstness_norm: float
    anomaly_score: float
    precision: float | None = None

    @property
    def size(self) -> int:
        return self.group.size


def _minmax(values: Sequence[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def anomaly_score(compactness_norm: float, deviation_norm: float, burstness_norm: float) -> float:
    """Weighted sum of the normalized indicators; group cohesion counts
    three times as much as either individual signal."""
    return COMPACTNESS_WEIGHT * compactness_norm + deviation_norm + burstness_norm


def normalize_scores(items: Sequence[tuple[CandidateGroup, IndicatorVector]]) -> list[ScoredGroup]:
    """Min-max scale each indicator column across the candidate population.

    A zero-range column (including the single-group case) maps to all
    zeros rather than inflating a constant signal.
    """
    if not items:
        raise ValueError("no candidate groups to normalize")
    comp = _minmax([vec.compactness for _, vec in items])
    dev = _minmax([vec.avg_rating_deviation for _, vec in items])
    bst = _minmax([vec.avg_burstness for _, vec in items])
    return [
        ScoredGroup(
            group=group,
            indicators=vec,
            compactness_norm=comp[i],
            deviation_norm=dev[i],
            burstness_norm=bst[i],
            anomaly_score=anomaly_score(comp[i], dev[i], bst[i]),
        )
        for i, (group, vec) in enumerate(items)
    ]


def _rank_key(sg: ScoredGroup):
    return (-sg.anomaly_score, -sg.size, sg.group.group_id, sg.group.source_cluster)


class Ranking(NamedTuple):
    headline: list[ScoredGroup]  # size >= floor, score-ordered
    full: list[ScoredGroup]  # every candidate, same order


def rank_groups(scored: Iterable[ScoredGroup], size_floor: int = DEFAULT_SIZE_FLOOR) -> Ranking:
    """Order by descending anomaly score; ties fall to the bigger group,
    then the smaller group id. Groups under the size floor stay out of
    the headline list but remain in the full ranking."""
    ordered = sorted(scored, key=_rank_key)
    return Ranking(
        headline=[sg for sg in ordered if sg.size >= size_floor],
        full=ordered,
    )


def group_precision(group: CandidateGroup) -> float | None:
    """Share of members having at least one fake-labeled review; None
    when no member has any labeled review (see ``ReviewerIndex.precision``)."""
    return group.index.precision(group.member_products.tolist())


def attach_precision(scored: Sequence[ScoredGroup]) -> list[ScoredGroup]:
    return [replace(sg, precision=group_precision(sg.group)) for sg in scored]


def size_distribution(sizes: Iterable[int]) -> dict[int, int]:
    """Counts of group sizes in fixed-width buckets keyed by bucket start."""
    counts = Counter((s // SIZE_BUCKET_WIDTH) * SIZE_BUCKET_WIDTH for s in sizes)
    return dict(sorted(counts.items()))


def score_groups(groups: Sequence[CandidateGroup]) -> list[ScoredGroup]:
    """Indicators + normalization + anomaly scores for a set of candidates."""
    items = [(g, group_indicators(g)) for g in groups]
    return normalize_scores(items)
