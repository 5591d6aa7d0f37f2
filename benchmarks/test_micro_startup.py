"""Microbenchmark of start-up: a fresh interpreter per round (pytest-benchmark).

Outside ``testpaths``, so the default test run skips it. Run with

    PYTHONPATH=src python -m pytest benchmarks/test_micro_startup.py

One benchmark times ``import spamrings.cli``, the other a whole ``ingest``
of a small ``synth`` file (400 reviewers, 5 reviews each), so most of its
time is interpreter and module start-up. Neither loads numpy or scipy
(``tests/test_cli.py::test_imports_load_no_unneeded_modules`` checks that).
"""

import subprocess
import sys

import pytest

pytest.importorskip("pytest_benchmark")

from spamrings.reviews import write_reviews
from spamrings.synth import SynthConfig, generate


def _run(argv):
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)


def test_import_cli_fresh_process(benchmark):
    benchmark(_run, [sys.executable, "-c", "import spamrings.cli"])


def test_ingest_small_fresh_process(benchmark, tmp_path):
    table, _ = generate(SynthConfig(n_reviewers=400, seed=0))
    path = tmp_path / "reviews.csv"
    write_reviews(table, path)
    argv = [sys.executable, "-m", "spamrings.cli", "ingest", "--input", str(path),
            "--out", str(tmp_path / "out")]
    benchmark(_run, argv)
    assert (tmp_path / "out" / "reviews_clean.csv").exists()
