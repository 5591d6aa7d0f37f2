"""Benchmark workloads: input generation from a seed, dirty-row injection, fingerprints.

Every input comes from ``spamrings.synth`` (plus, for the ingest workload,
the injector below) and is fully determined by the workload seed. The row
count and SHA-256 of each generated input file are on record in
``fingerprints.json`` for seeds 0-15; a mismatch means the generator no
longer produces the inputs the benchmark was defined on.

    python3 perfbench/workloads.py    # rewrite fingerprints.json
"""

from __future__ import annotations

import datetime
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
RECORDED_SEEDS = range(16)

DUPLICATE_SHARE = 0.05
MALFORMED_SHARE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # spamrings CLI command
    synth: dict = field(default_factory=dict)  # SynthConfig overrides
    planted_sizes: tuple[int, ...] = (25, 40, 60)
    dirty: bool = False  # inject duplicate and malformed rows


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-big-groups", "detect", planted_sizes=(1500, 1800, 2100)),
        Workload("ingest-dirty-16x", "ingest", dict(n_reviewers=32000, n_products=4800), dirty=True),
    )
}


@dataclass
class Inputs:
    text: str  # the review file the CLI reads
    truth: list[frozenset[str]]  # planted member sets
    clean_lines: list[str]  # rows a correct ingest keeps, in any order
    duplicates: int = 0
    malformed: int = 0

    @property
    def fingerprint(self) -> dict:
        return {
            "rows": self.text.count("\n"),
            "sha256": hashlib.sha256(self.text.encode("utf-8")).hexdigest(),
        }


def _rows(table) -> list[list[str]]:
    from spamrings.reviews import DEFAULT_LABEL_TOKENS

    return [
        [r.reviewer_id, r.product_id, str(r.rating), DEFAULT_LABEL_TOKENS[r.label], r.date.isoformat()]
        for r in table.reviews
    ]


def _malformed(kind: int, row: list[str]) -> list[str]:
    """One row that ingest must reject; four kinds in turn."""
    bad = list(row)
    if kind == 0:
        bad[2] = "6"  # rating outside 1..5
    elif kind == 1:
        bad[0] = ""  # empty reviewer id
    elif kind == 2:
        bad[4] = "2014-02-30"  # no such date
    else:
        bad[2] = "five"  # not a number
    return bad


def inject_dirty(rows: list[list[str]], rng) -> tuple[list[list[str]], list[list[str]], int, int]:
    """Add re-rated duplicates and malformed rows, then shuffle.

    ``floor(5%)`` of the rows get a duplicate with another rating dated 1-30
    days later, so ``keep_latest`` dedupe keeps the duplicate. ``floor(1%)``
    malformed rows are added, copied from random rows and broken. Returns
    (shuffled dirty rows, rows a correct ingest keeps, duplicates, malformed).
    """
    n_dup = int(len(rows) * DUPLICATE_SHARE)
    n_bad = int(len(rows) * MALFORMED_SHARE)
    kept = [list(r) for r in rows]
    extra = []
    for i in rng.choice(len(rows), size=n_dup, replace=False):
        rerated = list(rows[i])
        rerated[2] = str(1 + (int(rows[i][2]) + int(rng.integers(0, 4))) % 5)
        day = datetime.date.fromisoformat(rows[i][4]) + datetime.timedelta(days=int(rng.integers(1, 31)))
        rerated[4] = day.isoformat()
        kept[i] = rerated
        extra.append(rerated)
    for k, i in enumerate(rng.integers(0, len(rows), size=n_bad)):
        extra.append(_malformed(k % 4, rows[i]))
    dirty = rows + extra
    return [dirty[i] for i in rng.permutation(len(dirty))], kept, n_dup, n_bad


def generate_inputs(workload: Workload, seed: int) -> Inputs:
    import numpy as np
    from spamrings.synth import PlantedGroupConfig, SynthConfig, generate

    config = SynthConfig(
        **workload.synth,
        planted=[PlantedGroupConfig(size=s) for s in workload.planted_sizes],
        seed=seed,
    )
    table, truth = generate(config)
    rows = _rows(table)
    duplicates = malformed = 0
    clean = rows
    if workload.dirty:
        rows, clean, duplicates, malformed = inject_dirty(rows, np.random.default_rng([seed, 1]))
    return Inputs(
        text="".join(",".join(r) + "\n" for r in rows),
        truth=truth,
        clean_lines=[",".join(r) for r in clean],
        duplicates=duplicates,
        malformed=malformed,
    )


def recorded_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))


def check_fingerprint(workload: Workload, seed: int, inputs: Inputs) -> None:
    """Raise if the inputs differ from the record.

    A seed without a record is checked through seed 0: its inputs are made
    again and compared, since one generator makes every seed's inputs.
    """
    recorded = recorded_fingerprints()[workload.name]
    if str(seed) not in recorded:
        seed, inputs = 0, generate_inputs(workload, 0)
    if inputs.fingerprint != recorded[str(seed)]:
        raise ValueError(
            f"{workload.name} seed {seed}: generated input {inputs.fingerprint} "
            f"differs from the recorded {recorded[str(seed)]}"
        )


def main() -> int:
    table = {
        name: {str(s): generate_inputs(w, s).fingerprint for s in RECORDED_SEEDS}
        for name, w in WORKLOADS.items()
    }
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
