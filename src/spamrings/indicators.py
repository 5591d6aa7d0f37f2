"""Candidate reviewer groups and their anomaly indicators.

A candidate group is extracted from one cluster of the product-rating
graph: its members are the reviewers that appear in enough of the
cluster's node reviewer sets. Group-level indicators (review tightness,
product tightness, neighbor tightness and their product, the group
compactness) measure how coordinated the members' product sets look;
individual-level indicators (rating deviation, burstness) measure how
abnormal each member's own history is. All indicators live in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from ._lazy import lazy_import
from .graph import PRGraph, cluster_reviewer_support
from .reviews import ProductStats, ReviewTable

if TYPE_CHECKING:
    import scipy.sparse as sp

np = lazy_import("numpy")

DEFAULT_BURST_THRESHOLD_DAYS = 30

# dense intersection block size in elements (rows x members): 512 KiB of
# float64, so scoring a 2,000-member group adds a few MiB at most
PAIR_BLOCK_ELEMENTS = 65_536

# widest possible gap on a 1..5 star scale, used to normalize deviations
MAX_RATING_SPAN = 4.0


@dataclass
class CandidateGroup:
    """Reviewers pulled from one cluster, with their full product sets."""

    members: frozenset[str]
    member_products: Mapping[str, frozenset[str]]
    source_cluster: int = -1
    group_id: int = -1

    def __post_init__(self):
        if not self.members:
            raise ValueError("candidate group must have members")
        if set(self.member_products) != set(self.members):
            raise ValueError("member_products keys must equal members")
        empty = [m for m, ps in self.member_products.items() if not ps]
        if empty:
            raise ValueError(f"member {min(empty)!r} has no reviewed product")

    @property
    def products(self) -> frozenset[str]:
        out: set[str] = set()
        for ps in self.member_products.values():
            out |= ps
        return frozenset(out)

    @property
    def size(self) -> int:
        return len(self.members)


def group_from_table(members: Iterable[str], table: ReviewTable, source_cluster: int = -1) -> CandidateGroup:
    members = frozenset(members)
    products = {
        m: frozenset(r.product_id for r in table.by_reviewer.get(m, ())) for m in members
    }
    return CandidateGroup(members=members, member_products=products, source_cluster=source_cluster)


def extract_group(
    cluster_nodes: Iterable[int],
    graph: PRGraph,
    table: ReviewTable,
    min_support: int = 2,
    source_cluster: int = -1,
) -> CandidateGroup | None:
    """Members = reviewers present in >= min_support distinct cluster nodes.

    min_support generalizes intersecting all the node reviewer sets
    (pass the cluster size for the strict intersection). Product sets
    come from the full review table, not just the cluster. Returns None
    when nobody qualifies.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    support = cluster_reviewer_support(graph, cluster_nodes)
    members = {r for r, count in support.items() if count >= min_support}
    if not members:
        return None
    return group_from_table(members, table, source_cluster=source_cluster)


def penalty(group: CandidateGroup) -> float:
    """Logistic down-weighting of small groups: tiny overlaps happen by chance."""
    return 1.0 / (1.0 + math.exp(3 - len(group.members) - len(group.products)))


def review_tightness(group: CandidateGroup) -> float:
    """Fraction of the members x products grid actually reviewed, penalized.

    Each member's product set is capped to the group's products, so the
    raw ratio stays in (0, 1].
    """
    products = group.products
    filled = sum(len(ps & products) for ps in group.member_products.values())
    raw = filled / (len(group.members) * len(products))
    return raw * penalty(group)


def product_tightness(group: CandidateGroup) -> float:
    """Products everyone rated over products anyone rated (full product sets)."""
    sets = list(group.member_products.values())
    common = set(sets[0])
    union = set(sets[0])
    for ps in sets[1:]:
        common &= ps
        union |= ps
    return len(common) / len(union)


def _incidence(members: list[str], group: CandidateGroup) -> sp.csr_matrix:
    """0/1 members x products matrix, one row per member in the given order."""
    import scipy.sparse as sp

    column: dict[str, int] = {}
    indices = [
        column.setdefault(p, len(column)) for m in members for p in group.member_products[m]
    ]
    indptr = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([len(group.member_products[m]) for m in members], out=indptr[1:])
    data = np.ones(len(indices), dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(members), len(column)))


def neighbor_tightness(group: CandidateGroup) -> float:
    """Penalized average Jaccard similarity over member pairs.

    The sum is divided by the pair count, so the average stays in [0, 1].
    A singleton group has no pairs and scores 0.

    Pair intersections come from the sparse incidence product M Mᵀ, a
    block of rows at a time so memory stays bounded by
    PAIR_BLOCK_ELEMENTS. The result equals a pair loop over sorted members
    summing each Jaccard value left to right: the counts are exact in
    float64, one division rounds like Python's int / int, and np.cumsum
    adds in sequence, each block starting from the previous running total.
    """
    members = sorted(group.members)
    n = len(members)
    if n < 2:
        return 0.0
    incidence = _incidence(members, group)
    transposed = incidence.T.tocsr()
    sizes = np.diff(incidence.indptr).astype(np.float64)
    block_rows = max(1, PAIR_BLOCK_ELEMENTS // n)
    cols = np.arange(n)
    total = 0.0
    for start in range(0, n - 1, block_rows):
        stop = min(start + block_rows, n)
        rows = cols[start:stop]
        inter = (incidence[start:stop] @ transposed).toarray()
        upper = cols[None, :] > rows[:, None]  # j > i, row-major: combinations order
        inter_up = inter[upper]
        union_up = (sizes[rows, None] + sizes[None, :])[upper] - inter_up
        running = np.cumsum(np.concatenate(([total], inter_up / union_up)))
        total = float(running[-1])
    return total / (n * (n - 1) / 2) * penalty(group)


def avg_rating_deviation(
    reviewer: str, table: ReviewTable, stats: Mapping[str, ProductStats]
) -> float:
    """Mean |rating - product average| over the reviewer's reviews, scaled
    by the widest possible gap (4 stars) into [0, 1]."""
    reviews = table.by_reviewer.get(reviewer)
    if not reviews:
        raise KeyError(f"unknown reviewer {reviewer!r}")
    total = sum(abs(r.rating - stats[r.product_id].avg_rating) for r in reviews)
    return total / (len(reviews) * MAX_RATING_SPAN)


def burstness(
    reviewer: str, table: ReviewTable, tau_days: int = DEFAULT_BURST_THRESHOLD_DAYS
) -> float:
    """How compressed the reviewer's activity window is.

    1 when first and last review share a day, falling linearly to 0 at a
    span of tau_days; longer spans score 0.
    """
    if tau_days < 1:
        raise ValueError(f"tau_days must be >= 1, got {tau_days}")
    reviews = table.by_reviewer.get(reviewer)
    if not reviews:
        raise KeyError(f"unknown reviewer {reviewer!r}")
    days = [r.date for r in reviews]
    span = (max(days) - min(days)).days
    if span > tau_days:
        return 0.0
    return 1.0 - span / tau_days


@dataclass(frozen=True)
class IndicatorVector:
    review_tightness: float
    product_tightness: float
    neighbor_tightness: float
    compactness: float
    avg_rating_deviation: float
    avg_burstness: float


def group_indicators(
    group: CandidateGroup,
    table: ReviewTable,
    stats: Mapping[str, ProductStats],
    tau_days: int = DEFAULT_BURST_THRESHOLD_DAYS,
) -> IndicatorVector:
    """All six indicator values for one candidate group (unnormalized)."""
    rt = review_tightness(group)
    pt = product_tightness(group)
    nt = neighbor_tightness(group)
    members = sorted(group.members)
    avd = sum(avg_rating_deviation(m, table, stats) for m in members) / len(members)
    bst = sum(burstness(m, table, tau_days) for m in members) / len(members)
    return IndicatorVector(
        review_tightness=rt,
        product_tightness=pt,
        neighbor_tightness=nt,
        compactness=rt * pt * nt,
        avg_rating_deviation=avd,
        avg_burstness=bst,
    )


def write_indicators(path, rows: Iterable[tuple[CandidateGroup, IndicatorVector]]) -> None:
    """Per-group dump of raw indicator values as tab-separated text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "group_id\tcluster\tsize\tn_products\treview_tightness\tproduct_tightness"
            "\tneighbor_tightness\tcompactness\tavg_rating_deviation\tavg_burstness\n"
        )
        for group, vec in rows:
            fh.write(
                f"{group.group_id}\t{group.source_cluster}\t{group.size}\t{len(group.products)}"
                f"\t{vec.review_tightness:.6f}\t{vec.product_tightness:.6f}"
                f"\t{vec.neighbor_tightness:.6f}\t{vec.compactness:.6f}"
                f"\t{vec.avg_rating_deviation:.6f}\t{vec.avg_burstness:.6f}\n"
            )
