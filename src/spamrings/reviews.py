"""Review metadata ingestion: parsing, validation, dedup, per-product stats.

Input files are delimited text with columns
``reviewer_id, product_id, rating, label, date`` (the label column may be
absent, giving 4-column rows). Ratings are whole stars in 1..5, dates are
ISO ``YYYY-MM-DD``.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from datetime import date as _date
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

LABEL_FAKE = "fake"
LABEL_GENUINE = "genuine"
LABEL_UNKNOWN = "unknown"
VALID_LABELS = (LABEL_FAKE, LABEL_GENUINE, LABEL_UNKNOWN)
DEDUPE_POLICIES = ("keep_latest", "keep_first")

# Yelp metadata uses -1 / 1 label tokens; an empty field means unlabeled.
DEFAULT_LABEL_MAP = {
    "-1": LABEL_FAKE,
    "1": LABEL_GENUINE,
    "": LABEL_UNKNOWN,
    "fake": LABEL_FAKE,
    "genuine": LABEL_GENUINE,
    "unknown": LABEL_UNKNOWN,
}

DEFAULT_LABEL_TOKENS = {LABEL_FAKE: "-1", LABEL_GENUINE: "1", LABEL_UNKNOWN: ""}


class Review(NamedTuple):
    """One reviewer's rating of one product."""

    reviewer_id: str
    product_id: str
    rating: int
    date: _date
    label: str = LABEL_UNKNOWN


class RowError(NamedTuple):
    line: int
    message: str


def _index(reviews: list[Review], key: Callable[[Review], str]) -> dict[str, list[Review]]:
    index: dict[str, list[Review]] = defaultdict(list)
    for r in reviews:
        index[key(r)].append(r)
    return dict(index)


class ReviewTable:
    """A sequence of reviews indexed by reviewer and by product.

    Treated as immutable once built; indexes are plain dicts of lists in
    input order, each built on first use (a table that is only counted or
    deduped never builds them).
    """

    def __init__(self, reviews: Iterable[Review]):
        self.reviews: list[Review] = list(reviews)

    @cached_property
    def by_reviewer(self) -> dict[str, list[Review]]:
        return _index(self.reviews, attrgetter("reviewer_id"))

    @cached_property
    def by_product(self) -> dict[str, list[Review]]:
        return _index(self.reviews, attrgetter("product_id"))

    def __len__(self) -> int:
        return len(self.reviews)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReviewTable):
            return NotImplemented
        return self.reviews == other.reviews

    def reviewers(self) -> list[str]:
        return sorted(self.by_reviewer)

    def products(self) -> list[str]:
        return sorted(self.by_product)

    def label_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in VALID_LABELS}
        for r in self.reviews:
            counts[r.label] += 1
        return counts

    def has_labels(self) -> bool:
        """True if any review carries a fake/genuine label."""
        return any(r.label != LABEL_UNKNOWN for r in self.reviews)


def _parse_rating(text: str) -> int:
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"rating {text!r} is not a number") from None
    if not value.is_integer():
        raise ValueError(f"rating {text!r} is not a whole star")
    rating = int(value)
    if not 1 <= rating <= 5:
        raise ValueError(f"rating {rating} outside 1..5")
    return rating


def _parse_date(text: str) -> _date:
    try:
        return _date.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"unparseable date {text.strip()!r}") from None


def parse_reviews(
    path,
    delimiter: str = ",",
    has_header: bool = False,
    label_map: dict[str, str] | None = None,
) -> tuple[ReviewTable, list[RowError]]:
    """Read a review metadata file.

    Malformed rows are collected as :class:`RowError` with their 1-based
    line number; they never silently disappear. Blank rows are skipped and
    a leading UTF-8 byte-order mark is ignored. Each distinct rating and
    date token is converted once per call; only tokens that convert are
    remembered, so every bad row is still reported.

    Returns:
        (table of valid reviews, list of row errors)
    """
    label_map = DEFAULT_LABEL_MAP if label_map is None else label_map
    ratings: dict[str, int] = {}
    days: dict[str, _date] = {}
    reviews: list[Review] = []
    errors: list[RowError] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = enumerate(csv.reader(fh, delimiter=delimiter), start=1)
        if has_header:
            next(rows, None)
        for lineno, fields in rows:
            if not "".join(fields).strip():
                continue
            try:
                if len(fields) == 5:
                    reviewer, product, rating_s, label_s, date_s = fields
                elif len(fields) == 4:
                    reviewer, product, rating_s, date_s = fields
                    label_s = ""
                else:
                    raise ValueError(f"expected 4 or 5 columns, got {len(fields)}")
                reviewer = reviewer.strip()
                product = product.strip()
                if not reviewer or not product:
                    raise ValueError("empty reviewer or product id")
                rating = ratings.get(rating_s)
                if rating is None:
                    rating = ratings[rating_s] = _parse_rating(rating_s)
                day = days.get(date_s)
                if day is None:
                    day = days[date_s] = _parse_date(date_s)
                label_s = label_s.strip()
                label = label_map.get(label_s)
                if label is None:
                    raise ValueError(f"unmapped label token {label_s!r}")
            except ValueError as err:
                errors.append(RowError(lineno, str(err)))
                continue
            reviews.append(Review(reviewer, product, rating, day, label))
    return ReviewTable(reviews), errors


def write_reviews(
    table: ReviewTable,
    path,
    delimiter: str = ",",
    label_tokens: dict[str, str] | None = None,
) -> None:
    """Serialize a table back to the 5-column delimited layout."""
    tokens = DEFAULT_LABEL_TOKENS if label_tokens is None else label_tokens
    # date.isoformat costs more than a dict lookup, and days repeat across rows.
    iso = {day: day.isoformat() for day in {r.date for r in table.reviews}}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerows(
            (r.reviewer_id, r.product_id, r.rating, tokens[r.label], iso[r.date])
            for r in table.reviews
        )


def dedupe(table: ReviewTable, policy: str = "keep_latest") -> ReviewTable:
    """Collapse to one review per (reviewer, product) pair.

    ``keep_latest`` keeps the most recent rating (later file row wins a
    date tie), ``keep_first`` the earliest. Output preserves the order in
    which each pair is first seen, so a duplicate-free table passes
    through unchanged.
    """
    if policy not in DEDUPE_POLICIES:
        raise ValueError(f"unknown dedupe policy {policy!r}")
    kept: dict[tuple[str, str], Review] = {}
    for r in table.reviews:
        key = (r.reviewer_id, r.product_id)
        cur = kept.get(key)
        if cur is None:
            kept[key] = r
        elif policy == "keep_latest" and r.date >= cur.date:
            kept[key] = r
        elif policy == "keep_first" and r.date < cur.date:
            kept[key] = r
    return ReviewTable(kept.values())


@dataclass(frozen=True)
class ProductStats:
    product_id: str
    avg_rating: float
    review_count: int


def product_stats(table: ReviewTable) -> dict[str, ProductStats]:
    """Arithmetic mean rating and count per product, over all retained reviews.

    Every user's own review is included in the average of the products it
    rates; singleton products therefore have avg == their one rating.
    """
    stats: dict[str, ProductStats] = {}
    for product, reviews in table.by_product.items():
        total = sum(r.rating for r in reviews)
        stats[product] = ProductStats(product, total / len(reviews), len(reviews))
    return stats
