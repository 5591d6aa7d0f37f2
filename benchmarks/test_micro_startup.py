"""Microbenchmark of start-up: a fresh interpreter per round (pytest-benchmark).

Outside ``testpaths``, so the default test run skips it. Run with

    PYTHONPATH=src python -m pytest benchmarks/test_micro_startup.py

The first benchmark times ``import spamrings.cli`` as the environment
runs it (with ``PYTHONDONTWRITEBYTECODE`` set, every round compiles the
package from source), and the second the same import with the bytecode
cached: ``PYTHONDONTWRITEBYTECODE`` removed, ``PYTHONPYCACHEPREFIX`` set to
a temporary directory, and one warm-up run that writes the cache. The
third times a whole ``ingest`` of a small ``synth`` file (400 reviewers,
5 reviews each), so most of its time is interpreter and module start-up.
None of these loads numpy or scipy
(``tests/test_cli.py::test_imports_load_no_unneeded_modules`` checks
that). The fourth times a ``detect --epochs 5`` of the same file, which
loads both: most of its time is their import and the interpreter's exit,
since the graph is small and training short.
"""

import os
import subprocess
import sys

import pytest

pytest.importorskip("pytest_benchmark")

from spamrings.reviews import write_reviews
from spamrings.synth import SynthConfig, generate


def _run(argv, env=None):
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, env=env)


def test_import_cli_fresh_process(benchmark):
    benchmark(_run, [sys.executable, "-c", "import spamrings.cli"])


def test_import_cli_fresh_process_cached_bytecode(benchmark, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path / "pycache")
    argv = [sys.executable, "-c", "import spamrings.cli"]
    _run(argv, env)  # warm-up: compiles the package once and writes the cache
    assert list((tmp_path / "pycache").rglob("cli.*.pyc"))
    benchmark(_run, argv, env)


@pytest.fixture
def small_synth(tmp_path):
    table, _ = generate(SynthConfig(n_reviewers=400, seed=0))
    path = tmp_path / "reviews.csv"
    write_reviews(table, path)
    return path


def test_ingest_small_fresh_process(benchmark, small_synth, tmp_path):
    argv = [sys.executable, "-m", "spamrings.cli", "ingest", "--input", str(small_synth),
            "--out", str(tmp_path / "out")]
    benchmark(_run, argv)
    assert (tmp_path / "out" / "reviews_clean.csv").exists()


def test_detect_small_fresh_process(benchmark, small_synth, tmp_path):
    argv = [sys.executable, "-m", "spamrings.cli", "detect", "--input", str(small_synth),
            "--out", str(tmp_path / "out"), "--epochs", "5"]
    benchmark(_run, argv)
    assert (tmp_path / "out" / "ranked_groups.jsonl").exists()
