"""Microbenchmark of ingest: parse, dedupe and write (pytest-benchmark).

Outside ``testpaths``, so the default test run skips it. Run with

    PYTHONPATH=src python -m pytest benchmarks/test_micro_ingest.py --benchmark-disable-gc

The cyclic garbage collector is off while a round runs, as it is for a
command of the CLI.

The input has the shape of the ``ingest-dirty-16x`` benchmark workload,
built here from fixed seeds: ``synth`` data at 16x the default scale
(32,000 reviewers, 4,800 products), plus a re-rated duplicate dated 1-30
days later for 5% of the rows and a malformed copy of 1% of them (bad
rating, empty reviewer, impossible date, non-numeric rating in turn).
The quoted write case appends ",x" to every product id of the deduped
table, so every block takes ``write_reviews``' ``csv.writer`` path, which
no benchmark workload takes.
"""

import datetime
import random
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import write_reviews_reference

from spamrings.reviews import ReviewTable, dedupe, parse_reviews, write_reviews
from spamrings.synth import SynthConfig, generate

BAD_FIELDS = ((2, "6"), (0, ""), (4, "2014-02-30"), (2, "five"))


@pytest.fixture(scope="module")
def dirty(tmp_path_factory):
    """(input path, parsed table, duplicate count, malformed count)."""
    table, _ = generate(SynthConfig(n_reviewers=32000, n_products=4800, seed=0))
    path = tmp_path_factory.mktemp("ingest") / "reviews.csv"
    write_reviews(table, path)
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    rng = random.Random(0)
    duplicates = []
    for row in rng.sample(rows, len(rows) // 20):
        later = datetime.date.fromisoformat(row[4]) + datetime.timedelta(days=rng.randint(1, 30))
        duplicates.append([*row[:2], str(int(row[2]) % 5 + 1), row[3], later.isoformat()])
    malformed = []
    for k, row in enumerate(rng.sample(rows, len(rows) // 100)):
        col, token = BAD_FIELDS[k % len(BAD_FIELDS)]
        malformed.append([*row[:col], token, *row[col + 1:]])
    rows += duplicates + malformed
    rng.shuffle(rows)
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    parsed, _ = parse_reviews(path)
    return path, parsed, len(duplicates), len(malformed)


def test_parse_reviews_dirty_16x(benchmark, dirty):
    path, _, _, n_bad = dirty
    table, errors = benchmark(parse_reviews, path)
    assert len(errors) == n_bad
    assert len(table) > 160_000


def test_dedupe_dirty_16x(benchmark, dirty):
    _, table, n_dup, _ = dirty
    deduped = benchmark(dedupe, table)
    assert len(table) - len(deduped) == n_dup


def test_write_reviews_dirty_16x(benchmark, dirty, tmp_path):
    _, table, _, _ = dirty
    deduped = dedupe(table)
    out = tmp_path / "reviews_clean.csv"
    benchmark(write_reviews, deduped, out)
    want = tmp_path / "reference.csv"
    write_reviews_reference(deduped, want)
    assert out.read_bytes() == want.read_bytes()


def test_write_reviews_quoted_dirty_16x(benchmark, dirty, tmp_path):
    """Every product id holds the delimiter, so every block goes through the row writer."""
    _, table, _, _ = dirty
    quoted = ReviewTable(r._replace(product_id=r.product_id + ",x") for r in dedupe(table).reviews)
    out = tmp_path / "reviews_clean.csv"
    benchmark(write_reviews, quoted, out)
    want = tmp_path / "reference.csv"
    write_reviews_reference(quoted, want)
    assert out.read_bytes() == want.read_bytes()
