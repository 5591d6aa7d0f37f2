"""Candidate reviewer groups and their anomaly indicators.

A candidate group is extracted from one cluster of the product-rating
graph: its members are the reviewers that appear in enough of the
cluster's node reviewer sets. Group-level indicators (review tightness,
product tightness, neighbor tightness and their product, the group
compactness) measure how coordinated the members' product sets look;
individual-level indicators (rating deviation, burstness) measure how
abnormal each member's own history is. All indicators live in [0, 1].

Extraction and scoring read one :class:`ScoringIndex` of the table's
columns, built once per run: a reviewer is a row number, its product set
a row of one sparse reviewer × product matrix, and its individual
indicators entries of per-reviewer arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Collection, Iterable, Sequence

from ._lazy import lazy_import
from .graph import PRGraph
from .reviews import LABEL_CODES, LABEL_FAKE, ReviewColumns

np = lazy_import("numpy")
sp = lazy_import("scipy.sparse")

DEFAULT_BURST_THRESHOLD_DAYS = 30

# dense intersection block size in elements (rows x distinct product sets):
# 512 KiB of float64, so scoring a 2,000-member group adds a few MiB at most
PAIR_BLOCK_ELEMENTS = 65_536

# widest possible gap on a 1..5 star scale, used to normalize deviations
MAX_RATING_SPAN = 4.0


class ReviewerIndex:
    """A table's reviewer ids in row order, and which of them carry labels.

    Row i is ``reviewers[i]``, the columns' sorted ``reviewer_ids``, as in
    the incidence of the table's graph; ``fake[i]`` and ``labeled[i]`` are 1
    when that reviewer has a fake-labeled review, or any labeled review.
    Pure Python, so ``eval`` reads it without loading numpy.
    """

    def __init__(self, table: ReviewColumns):
        self.reviewers: list[str] = table.reviewer_ids
        self.fake = bytearray(len(self.reviewers))
        self.labeled = bytearray(len(self.reviewers))
        for row in set(compress(table.rows, table.labels)):
            self.labeled[row] = 1
        for row in set(compress(table.rows, map(LABEL_CODES[LABEL_FAKE].__eq__, table.labels))):
            self.fake[row] = 1

    def rows(self, names: Iterable[str]) -> list[int]:
        """Rows of the distinct names, ascending; ValueError for none, or one with no review.

        Each name is bisected in the sorted ids; the smallest unknown name is the one reported.
        """
        rows = []
        for name in sorted(set(names)):
            row = bisect_left(self.reviewers, name)
            if self.reviewers[row : row + 1] != [name]:
                raise ValueError(f"member {name!r} has no reviewed product")
            rows.append(row)
        if not rows:
            raise ValueError("candidate group must have members")
        return rows

    def precision(self, rows: Sequence[int]) -> float | None:
        """Share of the (distinct) rows' reviewers having at least one fake-labeled review.

        None when no member has any labeled review at all, which makes the
        metric meaningless.
        """
        if not any(map(self.labeled.__getitem__, rows)):
            return None
        return sum(map(self.fake.__getitem__, rows)) / len(rows)


class ScoringIndex(ReviewerIndex):
    """Per-reviewer arrays of a table, read from its columns.

    ``products`` is the reviewer × product 0/1 matrix R: canonical CSR
    whose column j is ``product_ids[j]``, the product ids in sorted order.
    ``deviation`` is each reviewer's mean |rating - product mean rating|
    over their reviews, scaled by the widest possible gap (4 stars) into
    [0, 1]; the terms are added in review order, as a per-review Python
    loop adds them. ``span_days`` is the days from a reviewer's first
    review to their last.
    """

    def __init__(self, table: ReviewColumns):
        super().__init__(table)
        n_rows = len(self.reviewers)
        self.product_ids = table.product_ids
        rows, cols, ratings, day = map(
            np.asarray, (table.rows, table.columns, table.ratings, table.days)
        )
        mean = np.bincount(cols, weights=ratings) / np.bincount(cols)  # exact sums: ratings are whole
        # bincount adds each reviewer's terms one at a time in input order
        self.deviation = np.bincount(rows, weights=np.abs(ratings - mean[cols]), minlength=n_rows)
        self.deviation /= np.bincount(rows, minlength=n_rows) * MAX_RATING_SPAN
        first = np.full(n_rows, np.iinfo(np.int64).max)
        last = np.full(n_rows, np.iinfo(np.int64).min)
        np.minimum.at(first, rows, day)
        np.maximum.at(last, rows, day)
        self.span_days = last - first
        self.products = sp.csr_array(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)),
            shape=(n_rows, len(self.product_ids)),
        )

    def burstness(self, tau_days: int = DEFAULT_BURST_THRESHOLD_DAYS, rows=slice(None)):
        """How compressed each reviewer's activity window is, for the given rows.

        1 when first and last review share a day, falling linearly to 0 at
        a span of tau_days; longer spans score 0.
        """
        if tau_days < 1:
            raise ValueError(f"tau_days must be >= 1, got {tau_days}")
        span = self.span_days[rows]
        return np.where(span > tau_days, 0.0, 1.0 - span / tau_days)

    def group(self, members: Iterable[str], source_cluster: int = -1) -> CandidateGroup:
        """The candidate group of the named reviewers (see :meth:`ReviewerIndex.rows`)."""
        return CandidateGroup(self, np.array(self.rows(members), dtype=np.intp), source_cluster)


@dataclass(eq=False)
class CandidateGroup:
    """Reviewers pulled from one cluster, as rows of a scoring index."""

    index: ScoringIndex
    member_products: np.ndarray  # the members' rows of index.products, ascending
    source_cluster: int = -1
    group_id: int = -1

    def __post_init__(self):
        if not len(self.member_products) or (np.diff(self.member_products) <= 0).any():
            raise ValueError("a candidate group needs member rows, distinct and ascending")

    @property
    def size(self) -> int:
        return len(self.member_products)

    @property
    def members(self) -> frozenset[str]:
        return frozenset(map(self.index.reviewers.__getitem__, self.member_products.tolist()))

    @cached_property
    def products(self) -> sp.csr_array:
        """The members' rows of the index's R, in member order."""
        return self.index.products[self.member_products]

    @cached_property
    def product_counts(self) -> np.ndarray:
        """How many members reviewed each product that any member reviewed."""
        return np.unique(self.products.indices, return_counts=True)[1]

    @property
    def n_products(self) -> int:
        return len(self.product_counts)


def extract_groups(
    pieces: Sequence[Collection[int]], graph: PRGraph, index: ScoringIndex, min_support: int = 2
) -> list[CandidateGroup | None]:
    """Per node set, the group of reviewers present in >= min_support of its nodes.

    min_support generalizes intersecting all the node reviewer sets
    (pass a piece's size for the strict intersection). Product sets come
    from the full review table, not just the piece. One sparse product of
    the piece × node 0/1 matrix with the graph's incidence Bᵀ counts every
    piece's support at once. A piece where nobody qualifies gives None.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    if graph.reviewers != index.reviewers:
        raise ValueError("graph and scoring index come from different tables")
    indptr = np.cumsum([0] + [len(p) for p in pieces])
    nodes = np.fromiter(chain.from_iterable(pieces), np.int32, indptr[-1])
    in_piece = sp.csr_array(
        (np.ones(len(nodes), dtype=np.int32), nodes, indptr),
        shape=(len(pieces), len(graph.node_keys)),
    )
    support = in_piece @ graph.incidence.T
    support.data[support.data < min_support] = 0
    support.eliminate_zeros()
    support.sort_indices()
    bounds = support.indptr.tolist()
    return [
        CandidateGroup(index, support.indices[a:b]) if b > a else None
        for a, b in zip(bounds, bounds[1:])
    ]


def penalty(group: CandidateGroup) -> float:
    """Logistic down-weighting of small groups: tiny overlaps happen by chance."""
    return 1.0 / (1.0 + math.exp(3 - group.size - group.n_products))


def review_tightness(group: CandidateGroup) -> float:
    """Fraction of the members x products grid actually reviewed, penalized.

    The group's products are the union of the member sets, so the raw
    ratio stays in (0, 1].
    """
    filled = group.products.nnz
    return filled / (group.size * group.n_products) * penalty(group)


def product_tightness(group: CandidateGroup) -> float:
    """Products everyone rated over products anyone rated (full product sets)."""
    return int(np.count_nonzero(group.product_counts == group.size)) / group.n_products


def neighbor_tightness(group: CandidateGroup) -> float:
    """Penalized average Jaccard similarity over member pairs.

    The sum is divided by the pair count, so the average stays in [0, 1].
    A singleton group has no pairs and scores 0.

    Members who reviewed the same product set are counted once: walking
    the members in sorted order, each distinct set gets a weight w, the
    number of members holding it. A pair of distinct sets c < d adds
    w_c w_d J(c, d), and the pairs inside one set add w_c (w_c - 1) / 2,
    since their Jaccard is 1. Intersections come from the sparse product
    K Kᵀ, where K holds the group's rows of R at each distinct set's first
    member, in float64 (R's int8 would wrap a count above 127), a block of
    rows at a time so memory stays bounded by PAIR_BLOCK_ELEMENTS; each
    block keeps only the columns from its first row on.

    np.cumsum adds the upper-triangle terms in sequence, row-major, a
    set's own term before its pairs with later sets; each block's first
    term takes the previous running total, and its lower corner is zeroed,
    which leaves a sequential sum unchanged. When every set is distinct
    the result equals a pair loop over sorted members summing each Jaccard
    value left to right: the counts are exact in float64, one division
    rounds like Python's int / int, and the own terms are 0. Repeated sets
    change only the summation order.
    """
    n = group.size
    if n < 2:
        return 0.0
    cols, bounds = group.products.indices.tolist(), group.products.indptr.tolist()
    sets = [tuple(cols[a:b]) for a, b in zip(bounds, bounds[1:])]
    weight = Counter(sets)  # first-appearance order
    first = dict(zip(reversed(sets), range(n - 1, -1, -1)))  # each set's first member
    rows = np.array([first[s] for s in weight])
    incidence = sp.csr_array(group.products[rows], dtype=np.float64)
    n_sets = len(weight)
    transposed = incidence.T.tocsr()
    sizes = np.diff(incidence.indptr).astype(np.float64)
    w = np.fromiter(weight.values(), dtype=np.float64, count=n_sets)
    own_pairs = w * (w - 1) / 2
    block_rows = max(1, PAIR_BLOCK_ELEMENTS // n_sets)
    lower = np.tri(min(block_rows, n_sets), k=-1, dtype=bool)
    total = 0.0
    for start in range(0, n_sets, block_rows):
        stop = min(start + block_rows, n_sets)
        r = stop - start
        inter = (incidence[start:stop] @ transposed).toarray()[:, start:]
        terms = sizes[start:stop, None] + sizes[None, start:]
        terms -= inter  # union
        np.divide(inter, terms, out=terms)
        terms *= np.multiply.outer(w[start:stop], w[start:])
        np.copyto(terms[:, :r], 0.0, where=lower[:r, :r])
        np.fill_diagonal(terms, own_pairs[start:stop])
        terms[0, 0] += total
        total = float(np.cumsum(terms)[-1])
    return total / (n * (n - 1) / 2) * penalty(group)


@dataclass(frozen=True)
class IndicatorVector:
    review_tightness: float
    product_tightness: float
    neighbor_tightness: float
    compactness: float
    avg_rating_deviation: float
    avg_burstness: float


def group_indicators(
    group: CandidateGroup, tau_days: int = DEFAULT_BURST_THRESHOLD_DAYS
) -> IndicatorVector:
    """All six indicator values for one candidate group (unnormalized).

    The member means add the members' values in sorted member order.
    """
    rt = review_tightness(group)
    pt = product_tightness(group)
    nt = neighbor_tightness(group)
    rows = group.member_products
    avd = sum(group.index.deviation[rows].tolist()) / group.size
    bst = sum(group.index.burstness(tau_days, rows).tolist()) / group.size
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
                f"{group.group_id}\t{group.source_cluster}\t{group.size}\t{group.n_products}"
                f"\t{vec.review_tightness:.6f}\t{vec.product_tightness:.6f}"
                f"\t{vec.neighbor_tightness:.6f}\t{vec.compactness:.6f}"
                f"\t{vec.avg_rating_deviation:.6f}\t{vec.avg_burstness:.6f}\n"
            )
