"""The benchmark's traced run still sees every stage, in the program's call order.

``perfbench/traced_cli.py`` wraps stage functions where ``spamrings.cli``
and ``spamrings.pipeline`` look them up as module globals. A stage that
is imported elsewhere, or called around those globals, drops out of the
span list, and the benchmark's ``--trace 1`` run then fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spamrings.reviews import write_reviews
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def reviews(tmp_path_factory):
    table, _ = generate(
        SynthConfig(
            n_reviewers=200,
            n_products=60,
            reviews_per_reviewer=4,
            planted=[PlantedGroupConfig(size=20, n_targets=4)],
            seed=5,
        )
    )
    path = tmp_path_factory.mktemp("traced") / "reviews.csv"
    write_reviews(table, path)
    return path


@pytest.fixture(scope="module")
def expected():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        from traced_cli import EXPECTED
    return EXPECTED


@pytest.mark.parametrize(
    "command, flags",
    [("ingest", []), ("detect", ["--seed", "0", "--epochs", "5", "--n-clusters", "10"])],
)
def test_traced_run_spans_follow_expected_stages(reviews, expected, tmp_path, command, flags):
    trace_path = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(trace_path), command,
         "--input", str(reviews), "--out", str(tmp_path / "out"), *flags],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["exit"] == 0
    stages = [s["name"] for s in trace["spans"] if s["name"] not in ("run", "import")]
    assert stages == expected[command]
