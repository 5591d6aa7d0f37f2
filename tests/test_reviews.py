import csv
import datetime
import random

import pytest

from spamrings.reviews import (
    DEFAULT_LABEL_MAP,
    LABEL_FAKE,
    LABEL_GENUINE,
    LABEL_UNKNOWN,
    Review,
    ReviewTable,
    RowError,
    dedupe,
    parse_reviews,
    product_stats,
    write_reviews,
)


def d(s):
    return datetime.date.fromisoformat(s)


def _oracle_rating(text):
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


def _oracle_row(fields, label_map):
    if len(fields) == 4:
        reviewer, product, rating_s, date_s = fields
        label_s = ""
    elif len(fields) == 5:
        reviewer, product, rating_s, label_s, date_s = fields
    else:
        raise ValueError(f"expected 4 or 5 columns, got {len(fields)}")
    reviewer = reviewer.strip()
    product = product.strip()
    if not reviewer or not product:
        raise ValueError("empty reviewer or product id")
    rating = _oracle_rating(rating_s)
    try:
        day = datetime.date.fromisoformat(date_s.strip())
    except ValueError:
        raise ValueError(f"unparseable date {date_s.strip()!r}") from None
    label_s = label_s.strip()
    label = label_map.get(label_s)
    if label is None:
        raise ValueError(f"unmapped label token {label_s!r}")
    return Review(reviewer, product, rating, day, label)


def _parse_reviews_oracle(path, delimiter=",", has_header=False, label_map=DEFAULT_LABEL_MAP):
    """Row-at-a-time reference parser: every token converted on every row."""
    reviews = []
    errors = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for lineno, fields in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not fields or all(not f.strip() for f in fields):
                continue
            try:
                reviews.append(_oracle_row(fields, label_map))
            except ValueError as err:
                errors.append(RowError(lineno, str(err)))
    return ReviewTable(reviews), errors


def _dirty_rows(rng, n):
    """Rows of every kind the parser must accept, skip or reject, as field lists."""
    ratings = ["1", "2", "3", "4", "5", " 4.0 ", "3.0", "5 "]
    labels = ["-1", "1", "", " 1 ", "fake", "unknown"]
    dates = [f"2014-{m:02d}-{day:02d}" for m in (1, 2, 3) for day in (1, 9, 28)]
    rows = []
    for i in range(n):
        u, p = f"u{rng.randrange(150)}", f"p{rng.randrange(40)}"
        rating, day = rng.choice(ratings), rng.choice(dates)
        kind = i % 20
        # Kinds 0-3 are the four malformed rows the ingest benchmark injects.
        if kind == 0:
            rows.append([u, p, "6", rng.choice(labels), day])
        elif kind == 1:
            rows.append(["", p, rating, rng.choice(labels), day])
        elif kind == 2:
            rows.append([u, p, rating, rng.choice(labels), "2014-02-30"])
        elif kind == 3:
            rows.append([u, p, "five", rng.choice(labels), day])
        elif kind == 4:
            rows.append([f"  {u} ", f" {p}", rating, rng.choice(labels), f" {day} "])
        elif kind == 5:
            rows.append(rng.choice([[], ["  "], ["", "", "", ""], [" ", "\t", "  ", " ", ""]]))
        elif kind == 6:
            rows.append([u, p, rating, day][: rng.choice([1, 2, 3])])
        elif kind == 7:
            rows.append([u, p, rating, "1", day, "extra"])
        elif kind == 8:
            rows.append([u, p, rng.choice(["4.5", "0", "-1", ""]), day])
        elif kind == 9:
            rows.append([u, p, rating, rng.choice(["maybe", "2"]), day])
        elif kind == 10:
            rows.append([u, "  ", rating, day])
        elif kind < 15:
            rows.append([u, p, rating, day])
        else:
            rows.append([u, p, rating, rng.choice(labels), day])
    return rows


def test_parse_four_column_row(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("u1,p1,5,2014-12-08\n")
    table, errors = parse_reviews(p)
    assert errors == []
    assert table.reviews == [Review("u1", "p1", 5, d("2014-12-08"), LABEL_UNKNOWN)]


def test_parse_five_column_row_with_label_map(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("u1,p1,4,-1,2014-12-08\nu2,p1,3,1,2014-12-09\nu3,p2,2,,2014-12-10\n")
    table, errors = parse_reviews(p)
    assert errors == []
    assert [r.label for r in table.reviews] == [LABEL_FAKE, LABEL_GENUINE, LABEL_UNKNOWN]


def test_rating_out_of_bounds_is_row_error(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("u1,p1,7,2014-12-08\nu2,p1,5,2014-12-08\n")
    table, errors = parse_reviews(p)
    assert len(table) == 1
    assert len(errors) == 1
    assert errors[0].line == 1
    assert "7" in errors[0].message


def test_bad_date_and_bad_column_count_reported_with_line(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("u1,p1,5,not-a-date\nu2,p1\nu3,p2,4,2013-02-01\n")
    table, errors = parse_reviews(p)
    assert len(table) == 1
    assert [e.line for e in errors] == [1, 2]


def test_header_skipped_and_tsv_delimiter(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("reviewer\tproduct\trating\tdate\nu1\tp1\t5\t2014-12-08\n")
    table, errors = parse_reviews(p, delimiter="\t", has_header=True)
    assert errors == []
    assert len(table) == 1


def test_integral_float_rating_accepted(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("u1,p1,4.0,2014-12-08\nu2,p1,4.5,2014-12-08\n")
    table, errors = parse_reviews(p)
    assert len(table) == 1
    assert table.reviews[0].rating == 4
    assert len(errors) == 1


def test_well_formed_file_parses_row_for_row(tmp_path):
    rng = random.Random(1)
    n = 1000
    rows = [
        f"u{rng.randrange(300)},p{rng.randrange(40)},{rng.randrange(1, 6)},"
        f"{rng.choice(['-1', '1', ''])},2014-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
        for _ in range(n)
    ]
    p = tmp_path / "bulk.csv"
    p.write_text("\n".join(rows) + "\n")
    table, errors = parse_reviews(p)
    assert errors == []
    assert len(table) == n


def test_dedupe_keep_latest_and_keep_first():
    table = ReviewTable(
        [
            Review("u1", "p1", 3, d("2014-01-01")),
            Review("u1", "p1", 5, d("2014-06-01")),
        ]
    )
    latest = dedupe(table, "keep_latest")
    assert [r.rating for r in latest.reviews] == [5]
    first = dedupe(table, "keep_first")
    assert [r.rating for r in first.reviews] == [3]


def test_dedupe_no_duplicates_is_identity():
    table = ReviewTable(
        [
            Review("u1", "p1", 3, d("2014-01-01")),
            Review("u2", "p1", 5, d("2014-06-01")),
            Review("u1", "p2", 4, d("2014-03-01")),
        ]
    )
    assert dedupe(table) == table


def test_dedupe_shrinks_and_is_idempotent():
    rng = random.Random(7)
    reviews = [
        Review(
            f"u{rng.randrange(6)}",
            f"p{rng.randrange(4)}",
            rng.randrange(1, 6),
            d("2014-01-01") + datetime.timedelta(days=rng.randrange(100)),
        )
        for _ in range(60)
    ]
    table = ReviewTable(reviews)
    once = dedupe(table)
    assert len(once) <= len(table)
    assert dedupe(once) == once
    pairs = {(r.reviewer_id, r.product_id) for r in once.reviews}
    assert len(pairs) == len(once)


def test_dedupe_rejects_unknown_policy():
    with pytest.raises(ValueError):
        dedupe(ReviewTable([]), "keep_random")


def test_product_stats_examples():
    table = ReviewTable(
        [
            Review("a", "p1", 5, d("2014-01-01")),
            Review("b", "p1", 5, d("2014-01-02")),
            Review("c", "p1", 5, d("2014-01-03")),
            Review("a", "p2", 1, d("2014-01-01")),
            Review("b", "p2", 5, d("2014-01-02")),
            Review("a", "p3", 2, d("2014-01-01")),
            Review("b", "p3", 3, d("2014-01-02")),
            Review("c", "p3", 5, d("2014-01-03")),
            Review("e", "p3", 5, d("2014-01-04")),
        ]
    )
    stats = product_stats(table)
    assert stats["p1"].avg_rating == 5.0
    assert stats["p1"].review_count == 3
    assert stats["p2"].avg_rating == 3.0
    assert stats["p3"].avg_rating == 3.75


def test_avg_rating_between_min_and_max():
    rng = random.Random(11)
    for _ in range(25):
        reviews = [
            Review(f"u{i}", f"p{rng.randrange(5)}", rng.randrange(1, 6), d("2014-01-01"))
            for i in range(40)
        ]
        table = ReviewTable(reviews)
        stats = product_stats(table)
        for product, st in stats.items():
            ratings = [r.rating for r in table.by_product[product]]
            assert min(ratings) <= st.avg_rating <= max(ratings)


def test_round_trip_parse_write_parse(tmp_path):
    rng = random.Random(3)
    labels = ["-1", "1", ""]
    rows = []
    for i in range(50):
        rows.append(
            f"u{rng.randrange(10)},p{rng.randrange(6)},{rng.randrange(1, 6)},"
            f"{labels[rng.randrange(3)]},{(d('2013-01-01') + datetime.timedelta(days=rng.randrange(400))).isoformat()}"
        )
    src = tmp_path / "src.csv"
    src.write_text("\n".join(rows) + "\n")
    table, errors = parse_reviews(src)
    assert errors == []
    out = tmp_path / "out.csv"
    write_reviews(table, out)
    table2, errors2 = parse_reviews(out)
    assert errors2 == []
    assert table2 == table


def test_label_counts_and_has_labels():
    table = ReviewTable(
        [
            Review("a", "p1", 5, d("2014-01-01"), LABEL_FAKE),
            Review("b", "p1", 5, d("2014-01-02"), LABEL_GENUINE),
            Review("c", "p1", 5, d("2014-01-03")),
        ]
    )
    assert table.label_counts() == {"fake": 1, "genuine": 1, "unknown": 1}
    assert table.has_labels()
    assert not ReviewTable([Review("a", "p1", 5, d("2014-01-01"))]).has_labels()


def test_leading_byte_order_mark_is_ignored(tmp_path):
    p = tmp_path / "r.csv"
    p.write_bytes(b"\xef\xbb\xbfu1,p1,5,2014-12-08\n")
    table, errors = parse_reviews(p)
    assert errors == []
    assert table.reviews == [Review("u1", "p1", 5, d("2014-12-08"))]


@pytest.mark.parametrize("has_header", [False, True])
@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_parse_matches_row_at_a_time_oracle(tmp_path, delimiter, has_header):
    rows = _dirty_rows(random.Random(5), 2400)
    lines = [delimiter.join(r) for r in rows]
    if has_header:
        lines.insert(0, delimiter.join(["reviewer", "product", "rating", "label", "date"]))
    p = tmp_path / "dirty.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    table, errors = parse_reviews(p, delimiter=delimiter, has_header=has_header)
    want_table, want_errors = _parse_reviews_oracle(p, delimiter=delimiter, has_header=has_header)
    assert table.reviews == want_table.reviews
    assert errors == want_errors
    for policy in ("keep_latest", "keep_first"):
        assert dedupe(table, policy).reviews == dedupe(want_table, policy).reviews
    assert len(table) > 1000 and len(errors) > 500
    assert len(dedupe(table)) < len(table)
    assert {m.split(" ")[0] for _, m in errors} >= {"rating", "empty", "unparseable", "expected", "unmapped"}


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_write_parse_round_trip_with_quoted_ids(tmp_path, delimiter):
    ids = [f"u{delimiter}1", 'say "hi"', " lead", "plain"]
    reviews = [
        Review(u, f"p{delimiter}{i}", 1 + i, d("2014-01-01") + datetime.timedelta(days=i), label)
        for i, (u, label) in enumerate(zip(ids, (LABEL_FAKE, LABEL_GENUINE, LABEL_UNKNOWN, LABEL_FAKE)))
    ]
    out = tmp_path / "out.txt"
    write_reviews(ReviewTable(reviews), out, delimiter=delimiter)
    table, errors = parse_reviews(out, delimiter=delimiter)
    assert errors == []
    # Parsing strips ids, so only the leading space is lost.
    assert table.reviews == [r._replace(reviewer_id=r.reviewer_id.strip()) for r in reviews]


def test_dedupe_date_tie_keeps_later_row_or_first_row():
    table = ReviewTable(
        [
            Review("u1", "p1", 2, d("2014-01-01")),
            Review("u1", "p1", 4, d("2014-03-01")),
            Review("u1", "p1", 5, d("2014-03-01")),
            Review("u2", "p1", 1, d("2014-02-01")),
            Review("u2", "p1", 3, d("2014-02-01")),
        ]
    )
    assert [r.rating for r in dedupe(table, "keep_latest").reviews] == [5, 3]
    assert [r.rating for r in dedupe(table, "keep_first").reviews] == [2, 1]


def test_indexes_keep_input_order_and_are_built_on_first_use():
    reviews = [
        Review("b", "p2", 1, d("2014-01-03")),
        Review("a", "p1", 2, d("2014-01-01")),
        Review("b", "p1", 3, d("2014-01-02")),
        Review("a", "p2", 4, d("2014-01-04")),
    ]
    table = ReviewTable(reviews)
    assert "by_reviewer" not in vars(table) and "by_product" not in vars(table)
    assert list(table.by_reviewer) == ["b", "a"]
    assert table.by_reviewer["b"] == [reviews[0], reviews[2]]
    assert table.by_reviewer["a"] == [reviews[1], reviews[3]]
    assert list(table.by_product) == ["p2", "p1"]
    assert table.by_product["p1"] == [reviews[1], reviews[2]]
    assert table.by_reviewer is table.by_reviewer
    empty = ReviewTable([])
    assert empty.by_reviewer == {} and empty.by_product == {}
    assert empty.reviewers() == [] and empty.products() == []
