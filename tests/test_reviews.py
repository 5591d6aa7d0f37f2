import csv
import datetime
import random
import re
import types
from array import array

import pytest
from oracles import (
    dedupe_reference,
    heavy_tailed_table,
    product_stats,
    review_cells,
    reviews_by,
    write_reviews_reference,
)

from spamrings import reviews as reviews_module
from spamrings.reviews import (
    DEFAULT_LABEL_MAP,
    LABEL_FAKE,
    LABEL_GENUINE,
    LABEL_UNKNOWN,
    Review,
    ReviewTable,
    RowError,
    WRITE_BLOCK_ROWS,
    dedupe,
    parse_reviews,
    repeated_cell,
    review_columns,
    write_reviews,
)
from spamrings.synth import SynthConfig, generate


def d(s):
    return datetime.date.fromisoformat(s)


def _oracle_rating(text):
    text = text.strip()
    whole, point, fraction = text.partition(".")
    if not whole or not set(whole + fraction) <= set("0123456789"):
        raise ValueError(f"rating {text!r} is not a number")
    if set(fraction) - {"0"}:
        raise ValueError(f"rating {text!r} is not a whole star")
    rating = int(whole)
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
    date_s = date_s.strip()
    if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", date_s, flags=re.ASCII):
        raise ValueError(f"unparseable date {date_s!r}")
    try:
        day = datetime.date.fromisoformat(date_s)
    except ValueError:
        raise ValueError(f"unparseable date {date_s!r}") from None
    label_s = label_s.strip()
    label = label_map.get(label_s)
    if label is None:
        raise ValueError(f"unmapped label token {label_s!r}")
    return Review(reviewer, product, rating, day, label)


def _parse_reviews_oracle(path, delimiter=",", has_header=False, label_map=DEFAULT_LABEL_MAP):
    """Row-at-a-time reference parser: every token converted on every row.

    A record starts on the line after the last one the reader had read
    before it, so an error names that line even when an earlier record's
    quoted field spans lines.
    """
    reviews = []
    errors = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        start = 1  # the line the next record starts on
        for record, fields in enumerate(reader):
            lineno, start = start, reader.line_num + 1
            if has_header and record == 0:
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
    labels = ["-1", "1", "", " 1 ", "fake", "unknown", " fake ", " maybe "]
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
            bad_day = rng.choice(["2014-02-30", "20140102", "2014-W01-3", " 2014W013"])
            rows.append([u, p, rating, rng.choice(labels), bad_day])
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
            rows.append([u, p, rng.choice(["4.5", "0", "-1", "", "+5", "5e0", "٥"]), day])
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


def test_rows_of_one_product_token_share_one_id_string(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("u1,p1,5,2014-12-08\nu2,p1,4,2014-12-09\nu3, p1 ,3,2014-12-10\nu4,p2,3,2014-12-10\n")
    table, errors = parse_reviews(p)
    assert errors == []
    a, b, c, other = (r.product_id for r in table.reviews)
    assert a == c == "p1" and a is b and other == "p2"


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


@pytest.mark.parametrize("has_header", [False, True])
@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
def test_row_error_names_the_line_its_record_starts_on(tmp_path, newline, has_header):
    """Records whose quoted ids hold line breaks, as write_reviews quotes them,
    shift every later record down by those breaks."""
    rows = [
        f'"u{newline}1",p1,5,-1,2014-01-02',  # lines 1-2
        "u2,p2,9,1,2014-01-03",  # line 3
        f'u3,"p{newline}{newline}3",5,,2014-01-04',  # lines 4-6
        f'"u{newline}4","p{newline}4",0,1,2014-01-05',  # lines 7-9
        "u5,p5,4,1,2014-01-06,x",  # line 10
        '"u6,p6,5,1,2014-01-07',  # line 11: a quote left open takes the file's last line break
    ]
    if has_header:
        rows.insert(0, f'"reviewer{newline}id",product,rating,label,date')
    p = tmp_path / "r.csv"
    p.write_bytes(newline.join(rows).encode() + b"\n")
    table, errors = parse_reviews(p, has_header=has_header)
    shift = 2 if has_header else 0
    assert [r.reviewer_id for r in table.reviews] == [f"u{newline}1", "u3"]
    assert errors == [
        RowError(3 + shift, "rating 9 outside 1..5"),
        RowError(7 + shift, "rating 0 outside 1..5"),
        RowError(10 + shift, "expected 4 or 5 columns, got 6"),
        RowError(11 + shift, "expected 4 or 5 columns, got 1"),
    ]
    want_table, want_errors = _parse_reviews_oracle(p, has_header=has_header)
    assert (want_table.reviews, want_errors) == (table.reviews, errors)


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
def test_file_holding_a_nul_fails_with_the_line_of_its_first_nul(tmp_path, newline):
    """csv reads a NUL into a field from Python 3.11 on, and 3.10 refuses the row without a
    line number; every version refuses the file and names the line of the first NUL."""
    rows = ['"u', '1",p1,5,1,2014-01-01', "u2,p2,4,1,2014-01-02", 'u3,"p\x003",4,,2014-01-03',
            "u\x004,p4,4,1,2014-01-04"]
    p = tmp_path / "r.csv"
    p.write_bytes(newline.join(rows).encode() + b"\n")
    with pytest.raises(ValueError, match="^line 4 contains NUL$"):
        parse_reviews(p, has_header=True)
    p.write_bytes(b"\x00u1,p1,5,2014-01-01\n")
    with pytest.raises(ValueError, match="^line 1 contains NUL$"):
        parse_reviews(p)
    p.write_bytes(newline.encode().join([b"u1,p1,5,2014-01-01", b"u2,p1,4,2014-01-02\x00"]))
    with pytest.raises(ValueError, match="^line 2 contains NUL$"):
        parse_reviews(p)


@pytest.mark.parametrize("token", ["20140102", "2014W013", "2014-W01-3"])
def test_date_other_than_yyyy_mm_dd_is_row_error(tmp_path, token):
    # Python 3.11's fromisoformat reads these basic and week dates and 3.10
    # rejects them; the input format is YYYY-MM-DD on every version.
    p = tmp_path / "r.csv"
    p.write_text(f"u1,p1,5,{token}\nu2,p1,4, 2013-02-01 \n")
    table, errors = parse_reviews(p)
    assert table.reviews == [Review("u2", "p1", 4, d("2013-02-01"))]
    assert errors == [RowError(1, f"unparseable date {token!r}")]


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


@pytest.mark.parametrize("token", ["0_5", "٥", "５", "5e0", "+5", ".5e1", "1_0", "nan", "inf"])
def test_rating_other_than_ascii_digits_is_not_a_number(tmp_path, token):
    # float() reads each of these, the first six as 5 and 1_0 as 10
    p = tmp_path / "r.csv"
    p.write_text(f"u1,p1,{token},2014-12-08\nu2,p1,05,2014-12-08\nu3,p1,5.,2014-12-08\n")
    table, errors = parse_reviews(p)
    assert [r.rating for r in table.reviews] == [5, 5]
    assert errors == [RowError(1, f"rating {token!r} is not a number")]


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


def test_dedupe_keeps_latest_rating():
    table = ReviewTable(
        [
            Review("u1", "p1", 3, d("2014-01-01")),
            Review("u1", "p1", 5, d("2014-06-01")),
        ]
    )
    assert [r.rating for r in dedupe(table).reviews] == [5]


def test_dedupe_no_duplicates_is_identity():
    table = ReviewTable(
        [
            Review("u1", "p1", 3, d("2014-01-01")),
            Review("u2", "p1", 5, d("2014-06-01")),
            Review("u1", "p2", 4, d("2014-03-01")),
        ]
    )
    assert dedupe(table).reviews == table.reviews


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
    assert dedupe(once).reviews == once.reviews
    pairs = {(r.reviewer_id, r.product_id) for r in once.reviews}
    assert len(pairs) == len(once)


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
        by_product = reviews_by(table, "product_id")
        for product, st in stats.items():
            ratings = [r.rating for r in by_product[product]]
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
    assert table2.reviews == table.reviews


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
    assert all(type(r) is Review for r in table.reviews)
    assert errors == want_errors
    assert dedupe(table).reviews == dedupe_reference(want_table).reviews
    assert len(table) > 1000 and len(errors) > 500
    assert len(dedupe(table)) < len(table)
    assert {m.split(" ")[0] for _, m in errors} >= {"rating", "empty", "unparseable", "expected", "unmapped"}


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_write_parse_round_trip_with_quoted_ids(tmp_path, delimiter):
    ids = [f"u{delimiter}1", 'say "hi"', " lead", "plain", "cr\rid"]
    labels = (LABEL_FAKE, LABEL_GENUINE, LABEL_UNKNOWN, LABEL_FAKE, LABEL_GENUINE)
    reviews = [
        Review(u, f"p{delimiter}{i}", 1 + i, d("2014-01-01") + datetime.timedelta(days=i), label)
        for i, (u, label) in enumerate(zip(ids, labels))
    ]
    reviews.append(Review("u9", "cr\rid", 3, d("2014-02-01"), LABEL_UNKNOWN))
    out = tmp_path / "out.txt"
    write_reviews(ReviewTable(reviews), out, delimiter=delimiter)
    table, errors = parse_reviews(out, delimiter=delimiter)
    assert errors == []
    # Parsing strips ids, so only the leading space is lost.
    assert table.reviews == [r._replace(reviewer_id=r.reviewer_id.strip()) for r in reviews]


def test_dedupe_date_tie_keeps_later_row():
    table = ReviewTable(
        [
            Review("u1", "p1", 2, d("2014-01-01")),
            Review("u1", "p1", 4, d("2014-03-01")),
            Review("u1", "p1", 5, d("2014-03-01")),
            Review("u2", "p1", 1, d("2014-02-01")),
            Review("u2", "p1", 3, d("2014-02-01")),
        ]
    )
    assert [r.rating for r in dedupe(table).reviews] == [5, 3]


def _special_ids(delimiter):
    """Ids that csv.writer quotes, or that sit next to a character it quotes for."""
    other = "\t" if delimiter == "," else ","
    return [
        f"u{delimiter}1", f"u{other}2", 'say "hi"', '"q', "two\nlines", "cr\rid",
        "  both  ", " lead", "trail ",
    ]


def _plain_reviews(n):
    """n reviews with plain ids, every rating 1-5 and every label."""
    labels = (LABEL_FAKE, LABEL_GENUINE, LABEL_UNKNOWN)
    day = d("2014-01-01")
    return [
        Review(f"u{i}", f"p{i % 97}", 1 + i % 5, day + datetime.timedelta(i % 400), labels[i % 3])
        for i in range(n)
    ]


class _CsvRowCounter:
    """Stands in for the csv module in reviews and counts the rows csv.writer is given."""

    def __init__(self):
        self.rows = 0

    def writer(self, fh, **kwargs):
        real = csv.writer(fh, **kwargs)

        def writerows(rows):
            rows = list(rows)
            self.rows += len(rows)
            real.writerows(rows)

        return types.SimpleNamespace(writerows=writerows)


def _assert_same_bytes(tmp_path, table, delimiter):
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    write_reviews(table, got, delimiter=delimiter)
    write_reviews_reference(table, want, delimiter=delimiter)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("delimiter", [",", "\t", "-"])
def test_write_reviews_matches_csv_writer_reference(tmp_path, delimiter):
    """Each special id alone in a table, as reviewer and as product.

    With "-" the labels and dates hold the delimiter, so no block is plain.
    """
    plain = _plain_reviews(15)
    _assert_same_bytes(tmp_path, ReviewTable(plain), delimiter)
    for special in _special_ids(delimiter):
        for field in ("reviewer_id", "product_id"):
            reviews = plain[:7] + [plain[7]._replace(**{field: special})] + plain[8:]
            _assert_same_bytes(tmp_path, ReviewTable(reviews), delimiter)


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_write_reviews_quotes_only_the_block_that_needs_it(tmp_path, monkeypatch, delimiter):
    """Three full blocks and a partial one; the only special id sits in the second block."""
    reviews = _plain_reviews(3 * WRITE_BLOCK_ROWS + 123)
    middle = WRITE_BLOCK_ROWS + 4321
    reviews[middle] = reviews[middle]._replace(reviewer_id=f"a{delimiter}b")
    counter = _CsvRowCounter()
    monkeypatch.setattr(reviews_module, "csv", counter)
    _assert_same_bytes(tmp_path, ReviewTable(reviews), delimiter)
    assert counter.rows == WRITE_BLOCK_ROWS
    counter.rows = 0
    _assert_same_bytes(tmp_path, ReviewTable(_plain_reviews(2 * WRITE_BLOCK_ROWS)), delimiter)
    assert counter.rows == 0


def test_write_reviews_empty_table_and_bad_delimiter(tmp_path):
    _assert_same_bytes(tmp_path, ReviewTable([]), ",")
    assert (tmp_path / "got.txt").read_bytes() == b""
    for write in (write_reviews, write_reviews_reference):
        with pytest.raises(TypeError):
            write(ReviewTable(_plain_reviews(3)), tmp_path / "bad.txt", delimiter=";;")


def _special_id_table():
    """Every reviewer and product id holds a comma, a quote or a carriage return."""
    ids = ["a,b", 'say "hi"', "cr\rid", '",\r"']
    labels = (LABEL_FAKE, LABEL_GENUINE, LABEL_UNKNOWN)
    day = d("2014-01-01")
    return ReviewTable(
        Review(u, p, 1 + (i + j) % 5, day + datetime.timedelta(3 * i - j), labels[i % 3])
        for i, u in enumerate(ids)
        for j, p in enumerate(reversed(ids))
        if (i + j) % 3
    )


def test_review_columns_equal_the_review_cells_oracle():
    tables = [(f"synth seed {s}", dedupe(generate(SynthConfig(seed=s))[0])) for s in range(3)]
    tables.append(("heavy tailed", heavy_tailed_table(2_000, 300, cap=50)))
    tables.append(("special ids", _special_id_table()))
    for name, table in tables:
        columns = review_columns(table)
        reviewers = sorted({r.reviewer_id for r in table.reviews})
        product_ids, rows, cols, ratings = review_cells(
            table, {r: i for i, r in enumerate(reviewers)}
        )
        assert columns.reviewer_ids == reviewers, name
        assert columns.product_ids == product_ids, name
        for got, want, itemsize in (
            (columns.rows, rows.tolist(), 4),
            (columns.columns, cols.tolist(), 4),
            (columns.ratings, ratings.tolist(), 1),
            (columns.days, [r.date.toordinal() for r in table.reviews], 4),
            (columns.labels, [r.label for r in table.reviews], 1),
        ):
            assert got.itemsize == itemsize and got.tolist() == want, name
        assert len(columns) == len(table), name
        assert columns.has_labels() == any(r.label for r in table.reviews), name


def test_repeated_cell_keys_do_not_wrap_at_int32():
    """With 70,000 reviewers and 61,358 products the cells pass 2³²; the
    cells (1, 5) and (61357, 47301) are 2³² apart, one cell in int32."""
    n_rows = 70_000
    assert (61_357 * n_rows + 47_301) - (1 * n_rows + 5) == 2**32
    rows, columns = array("i", [5, 47_301, 69_999]), array("i", [1, 61_357, 61_357])
    assert repeated_cell(rows, columns, n_rows) is None
    rows.append(47_301)
    columns.append(61_357)
    assert repeated_cell(rows, columns, n_rows) == (61_357, 47_301)
    # the smallest repeated cell is named, by column and then row
    rows.extend([5, 69_999, 69_999])
    columns.extend([1, 61_357, 61_357])
    assert repeated_cell(rows, columns, n_rows) == (1, 5)
