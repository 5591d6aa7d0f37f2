"""Output checks: planted-group matching, ingest counts, report hashes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Detect artifacts that must not depend on timing or the BLAS thread count.
REPORT_FILES = ("ranked_groups.jsonl", "summary.txt", "indicators.tsv", "assignment.csv")
INGEST_FILES = ("reviews_clean.csv", "ingest_summary.txt")


def planted_found(headline: list[set[str]], truth: list[frozenset[str]]) -> int:
    """Planted groups matched among the first len(truth) headline groups.

    The criterion-6 rule: a group matches the planted group it overlaps most
    (share of the group's members) when that share is at least 0.8, and each
    planted group is claimed by the first group whose best match it is, even
    when that group falls short of 0.8.
    """
    matched: set[int] = set()
    found = 0
    for members in headline[: len(truth)]:
        overlaps = [len(members & planted) / len(members) for planted in truth]
        best = max(range(len(truth)), key=overlaps.__getitem__)
        if overlaps[best] >= 0.8 and best not in matched:
            found += 1
        matched.add(best)
    return found


def headline_groups(ranked_path: Path) -> list[set[str]]:
    """Member sets of the headline groups of a ranked_groups.jsonl, in rank order."""
    with open(ranked_path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if [r["rank"] for r in records] != list(range(1, len(records) + 1)):
        raise ValueError(f"{ranked_path}: ranks are not 1..{len(records)}")
    return [set(r["members"]) for r in records if r["headline"]]


def _products_by_reviewer(lines) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for line in lines:
        reviewer, product, _ = line.split(",", 2)
        out.setdefault(reviewer, set()).add(product)
    return out


def planted_surviving(output_lines, expected_lines, truth: list[frozenset[str]]) -> int:
    """Planted groups whose every member keeps all its reviewed products through ingest."""
    got = _products_by_reviewer(output_lines)
    want = _products_by_reviewer(expected_lines)
    return sum(1 for g in truth if all(m in want and got.get(m) == want[m] for m in g))


def ingest_counts(summary_path: Path) -> dict[str, int]:
    counts = {}
    for line in summary_path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep and value.isdigit():
            counts[key] = int(value)
    return counts


def sorted_lines_digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def file_digests(out_dir: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}
