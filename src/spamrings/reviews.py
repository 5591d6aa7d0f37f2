"""Review metadata ingestion: parsing, validation, dedup.

Input files are delimited text with columns
``reviewer_id, product_id, rating, label, date`` (the label column may be
absent, giving 4-column rows). Ratings are whole stars in 1..5, written
as ASCII digits with an optional "." and zero fraction ("5", "05", "4.0");
dates are ISO ``YYYY-MM-DD``.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from datetime import date as _date
from functools import partial
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Iterable, NamedTuple

# A label's code, in a Review and in ReviewColumns.labels alike: 0 is unlabeled.
LABEL_UNKNOWN, LABEL_GENUINE, LABEL_FAKE = 0, 1, 2

# Yelp metadata uses -1 / 1 label tokens; an empty field means unlabeled.
DEFAULT_LABEL_MAP = {
    "-1": LABEL_FAKE,
    "1": LABEL_GENUINE,
    "": LABEL_UNKNOWN,
    "fake": LABEL_FAKE,
    "genuine": LABEL_GENUINE,
    "unknown": LABEL_UNKNOWN,
}

# The written token of each label, indexed by its code.
DEFAULT_LABEL_TOKENS = ("", "1", "-1")

# A rating token: ASCII digits, then optionally "." and more ASCII digits.
_RATING = re.compile(r"([0-9]+)(?:\.([0-9]*))?")

# Rows that write_reviews joins into one string and writes at once.
WRITE_BLOCK_ROWS = 8192


class Review(NamedTuple):
    """One reviewer's rating of one product."""

    reviewer_id: str
    product_id: str
    rating: int
    date: _date
    label: int = LABEL_UNKNOWN


# tuple.__new__ builds a Review in C; the NamedTuple's generated __new__
# runs a Python frame per row.
_new_review = partial(tuple.__new__, Review)


class RowError(NamedTuple):
    line: int
    message: str


class ReviewTable:
    """A list of reviews in input order, treated as immutable once built.

    Ingest reads and writes rows; the stages after it read the table's
    :class:`ReviewColumns`.
    """

    def __init__(self, reviews: Iterable[Review]):
        self.reviews: list[Review] = list(reviews)

    def __len__(self) -> int:
        return len(self.reviews)


def _parse_rating(text: str) -> int:
    text = text.strip()
    match = _RATING.fullmatch(text)
    if match is None:
        raise ValueError(f"rating {text!r} is not a number")
    whole, fraction = match.groups()
    if fraction and fraction.strip("0"):
        raise ValueError(f"rating {text!r} is not a whole star")
    rating = int(whole)
    if not 1 <= rating <= 5:
        raise ValueError(f"rating {rating} outside 1..5")
    return rating


def _parse_date(text: str) -> _date:
    text = text.strip()
    try:  # YYYY-MM-DD only: Python 3.11's fromisoformat also reads 20140102 and week dates
        if len(text) != 10 or text[4] != "-" or text[7] != "-":
            raise ValueError
        return _date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"unparseable date {text!r}") from None


def _parse_label(text: str) -> int:
    label = DEFAULT_LABEL_MAP.get(text.strip())
    if label is None:
        raise ValueError(f"unmapped label token {text.strip()!r}")
    return label


def _is_blank(fields: list[str]) -> bool:
    return not "".join(fields).strip()


def parse_reviews(
    path, delimiter: str = ",", has_header: bool = False
) -> tuple[ReviewTable, list[RowError]]:
    """Read a review metadata file.

    Malformed rows are collected as :class:`RowError` with the 1-based
    number of the line their record starts on; they never silently
    disappear. Blank rows are skipped and a leading UTF-8 byte-order
    mark is ignored. A file holding a NUL byte is not text and fails as a
    whole, with the line of its first NUL, on every Python version (the
    csv module of 3.11 and later would read the NUL into a field). The
    file is read once, from the start, so a pipe serves as well. Each
    distinct product, rating, date and label token is converted once per
    call, so every row of a product shares one id string; only tokens
    that convert are remembered, so every bad row is still reported.
    Reviewer ids repeat too rarely for a cache to pay.

    Returns:
        (table of valid reviews, list of row errors)
    """
    products: dict[str, str] = {}
    ratings: dict[str, int] = {}
    days: dict[str, _date] = {}
    labels: dict[str, int] = {}
    reviews: list[Review] = []
    errors: list[RowError] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        text = fh.read()
    nul = text.find("\0")
    if nul >= 0:  # CRLF, CR and LF are one line break each
        breaks = text.count("\r", 0, nul) + text.count("\n", 0, nul) - text.count("\r\n", 0, nul)
        raise ValueError(f"line {breaks + 1} contains NUL")
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    del text  # the StringIO holds its own copy
    if has_header:
        next(reader, None)
    # A record starts on the line after the last one its predecessor took:
    # a quoted field may hold line breaks, so records and lines can differ.
    start = reader.line_num + 1
    for fields in reader:
        lineno, start = start, reader.line_num + 1
        # A blank row fails the column or the id check, so only such a
        # row is tested for blankness.
        try:
            if len(fields) == 5:
                reviewer, product, rating_s, label_s, date_s = fields
            elif len(fields) == 4:
                reviewer, product, rating_s, date_s = fields
                label_s = ""
            elif _is_blank(fields):
                continue
            else:
                raise ValueError(f"expected 4 or 5 columns, got {len(fields)}")
            reviewer = reviewer.strip()
            try:
                product = products[product]
            except KeyError:
                product = products[product] = product.strip()
            if not reviewer or not product:
                if _is_blank(fields):
                    continue
                raise ValueError("empty reviewer or product id")
            try:
                rating = ratings[rating_s]
            except KeyError:
                rating = ratings[rating_s] = _parse_rating(rating_s)
            try:
                day = days[date_s]
            except KeyError:
                day = days[date_s] = _parse_date(date_s)
            try:
                label = labels[label_s]
            except KeyError:
                label = labels[label_s] = _parse_label(label_s)
        except ValueError as err:
            errors.append(RowError(lineno, str(err)))
            continue
        reviews.append(_new_review((reviewer, product, rating, day, label)))
    return ReviewTable(reviews), errors


def _fields(block: list[Review], ratings: dict, iso: dict) -> Iterable[tuple[str, ...]]:
    """The five written fields of each review of a block, as strings."""
    ids, products, stars, days, labels = zip(*block)
    return zip(
        ids,
        products,
        map(ratings.__getitem__, stars),
        map(DEFAULT_LABEL_TOKENS.__getitem__, labels),
        map(iso.__getitem__, days),
    )


class _LineFeedRows:
    """The file a row_writer writes to. csv hands over each row in one call,
    ending in the "\\r\\n" terminator; fh gets it ending in "\\n"."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, row: str) -> int:
        return self.fh.write(row[:-2] + "\n")


def row_writer(fh, delimiter: str = ","):
    """The ``csv.writer`` of every delimited table: minimal quoting, "\\n" line
    ends, and a field holding a carriage return quoted like one holding a
    line feed, so that it survives a second read (the "\\r\\n" terminator
    makes ``csv`` quote both on every Python version)."""
    return csv.writer(_LineFeedRows(fh), delimiter=delimiter, lineterminator="\r\n")


def write_reviews(table: ReviewTable, path, delimiter: str = ",") -> None:
    """Serialize a table back to the 5-column delimited layout.

    The bytes are those of :func:`row_writer`. Each block of
    WRITE_BLOCK_ROWS rows is joined into one string and written at once. A
    block whose text holds a quote, a carriage return, or more delimiters
    or line breaks than its rows' own separators has a field that may need
    quoting, so that block is written by the row writer instead.
    """
    reviews = table.reviews
    # str and date.isoformat cost more than a dict lookup, and ratings and
    # days repeat across rows.
    ratings = {star: str(star) for star in set(map(itemgetter(2), reviews))}
    iso = {day: day.isoformat() for day in set(map(itemgetter(3), reviews))}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # Built before any block, so a delimiter csv rejects fails as before.
        writer = row_writer(fh, delimiter)
        for start in range(0, len(reviews), WRITE_BLOCK_ROWS):
            block = reviews[start : start + WRITE_BLOCK_ROWS]
            text = "\n".join(map(delimiter.join, _fields(block, ratings, iso))) + "\n"
            n = len(block)
            if (
                '"' in text
                or "\r" in text
                or text.count(delimiter) != 4 * n
                or text.count("\n") != n
            ):
                writer.writerows(_fields(block, ratings, iso))
            else:
                fh.write(text)


def dedupe(table: ReviewTable) -> ReviewTable:
    """Collapse to one review per (reviewer, product) pair.

    The most recent rating is kept, and a later file row wins a date tie.
    Output preserves the order in which each pair is first seen, so a
    duplicate-free table passes through unchanged.
    """
    kept: dict[tuple[str, str], Review] = {}
    for r in table.reviews:
        # r[:2] is the (reviewer_id, product_id) key.
        cur = kept.setdefault(r[:2], r)
        if cur is not r and r.date >= cur.date:
            kept[r[:2]] = r
    return ReviewTable(kept.values())


class ReviewColumns:
    """A deduped table as one column per field, in review order.

    Review k is reviewer ``reviewer_ids[rows[k]]``'s rating ``ratings[k]``
    of product ``product_ids[columns[k]]`` on day ``days[k]`` (a
    ``date.toordinal``), labeled ``labels[k]`` (a label code). The
    ids are the distinct ones, sorted: row i of every reviewer matrix of the
    table is ``reviewer_ids[i]``. The columns are stdlib arrays, int32 or
    int8, so building them loads no numpy, and numpy reads them in place.
    A plain class: a dataclass would generate its methods at import.
    """

    def __init__(self, reviewer_ids, product_ids, rows, columns, ratings, days, labels):
        self.reviewer_ids: list[str] = reviewer_ids
        self.product_ids: list[str] = product_ids
        self.rows, self.columns, self.ratings = rows, columns, ratings
        self.days, self.labels = days, labels

    def __len__(self) -> int:
        return len(self.rows)

    def has_labels(self) -> bool:
        """True if any review carries a fake/genuine label."""
        return any(self.labels)


def repeated_cell(rows, columns, n_rows: int) -> tuple[int, int] | None:
    """(column, row) of the smallest cell column·n_rows + row held twice, or None.

    The cells are Python ints, so no product of two int32 columns wraps.
    """
    cells = list(map(add, map(mul, columns, repeat(n_rows)), rows))
    if len(set(cells)) == len(cells):
        return None
    seen: set[int] = set()
    return divmod(min(c for c in cells if c in seen or seen.add(c)), n_rows)


def _positions(reviews: list[Review], field: int) -> tuple[list[str], list[int]]:
    """The distinct ids of a review field, sorted, and each review's position among them."""
    ids = sorted(set(map(itemgetter(field), reviews)))
    position = {v: i for i, v in enumerate(ids)}
    return ids, list(map(position.__getitem__, map(itemgetter(field), reviews)))


def review_columns(table: ReviewTable) -> ReviewColumns:
    """The columns of a table that holds one review per (reviewer, product).

    ``dedupe`` leaves such a table, and the graph and the scoring index
    rest on it. A ValueError names the pair held twice, the first by
    product and then reviewer.
    """
    reviews = table.reviews
    reviewer_ids, rows = _positions(reviews, 0)
    product_ids, columns = _positions(reviews, 1)
    twice = repeated_cell(rows, columns, len(reviewer_ids))
    if twice is not None:
        raise ValueError(
            f"reviewer {reviewer_ids[twice[1]]!r} reviewed product {product_ids[twice[0]]!r} "
            "more than once; dedupe the table first"
        )
    days = {d: d.toordinal() for d in set(map(itemgetter(3), reviews))}
    # an array fills faster from a list or bytes than from an iterator
    return ReviewColumns(
        reviewer_ids,
        product_ids,
        array("i", rows),
        array("i", columns),
        array("b", bytes(map(itemgetter(2), reviews))),
        array("i", list(map(days.__getitem__, map(itemgetter(3), reviews)))),
        array("b", bytes(map(itemgetter(4), reviews))),
    )
