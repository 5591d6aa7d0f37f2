"""Benchmark of the spamrings CLI, one workload per call.

    python3 perfbench/run.py --workload detect-big-groups --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Set-up, outside the timed region: generate the workload's inputs from the
seed, check them against ``fingerprints.json``, and time fresh interpreters
importing ``spamrings.cli`` (``setup_s``). Then one client runs the real CLI
in a fresh process, starting each run only after the previous one exited,
until ``--seconds`` have passed. Every run's outputs are checked. Wall time,
CPU time and peak RSS come from each child's own rusage. The timed runs
pin BLAS to one thread, since two OpenBLAS threads on a two-core shared
host make run-to-run times much noisier.

The host's own speed drifts by a quarter or more over minutes, so each CLI
run is bracketed by runs of ``reference.py``, fixed work that imports no
spamrings code. ``wall_norm_s`` and ``cpu_norm_s`` scale each run's time
by ``REF_S`` over the mean of the reference times just before and just
after it: the run's time on a host running at the baseline's speed.

With ``--trace 1`` the same untraced runs are followed by one traced run
(``traced_cli.py``) and one untraced run at the BLAS library's default
thread count, which must both write the same bytes; the result then holds
the per-layer metrics instead of the end-to-end ones. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
from tracing import Span, layer_self_times, self_times
from traced_cli import EXPECTED
from workloads import ROOT, WORKLOADS, Inputs, Workload, check_fingerprint, generate_inputs

SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SPAWNS = 5  # fresh imports timed per call; the median drops a first one that compiles bytecode
MIN_RUNS = 2  # CLI runs per call, even when one run outlasts --seconds
REFERENCE = Path(__file__).with_name("reference.py")
REF_S = 1.3  # median time of reference.py over 46 runs on the baseline host (README, Baseline)
DEADLINE_S = 165.0  # the whole call must end within 180 s

END_TO_END = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "planted_found": "count",
}
PER_LAYER = {
    "reviews.parse_s": "s",
    "reviews.dedupe_s": "s",
    "reviews.write_s": "s",
    "reviews.rows": "count",
    "reviews.row_errors": "count",
    "reviews.duplicates_removed": "count",
    "reviews.rows_per_s": "1/s",
    "graph.build_s": "s",
    "graph.matrix_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.isolated_nodes": "count",
    "graph.pair_visits": "count",
    "graph.edge_yield": "ratio",
    "clustering.train_s": "s",
    "clustering.epochs": "count",
    "clustering.epochs_per_s": "1/s",
    "clustering.active_share": "ratio",
    "clustering.nonempty_clusters": "count",
    "clustering.modularity_q": "Q",
    "clustering.final_loss": "loss",
    "scoring.extract_s": "s",
    "scoring.score_s": "s",
    "scoring.rank_s": "s",
    "scoring.groups": "count",
    "scoring.max_group_size": "count",
    "scoring.member_pairs": "count",
    "scoring.pairs_per_s": "1/s",
    "pipeline.report_s": "s",
    "pipeline.report_bytes": "bytes",
    "trace.overhead_s": "s",
    "blas_default.wall_s": "s",
    "blas_default.cpu_s": "s",
    "run.wall_s": "s",
    "run.cpu_s": "s",
    "host.ref_s": "s",
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMED_BLAS_THREADS = "1"


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    ok: bool = False  # exit 0 and every output check passed
    planted: int = 0
    ref: float = REF_S  # mean reference time just before and just after this run

    @property
    def wall_norm(self) -> float:
        return self.wall * REF_S / self.ref

    @property
    def cpu_norm(self) -> float:
        return self.cpu * REF_S / self.ref


def child_env(blas_threads: str | None = TIMED_BLAS_THREADS) -> dict[str, str]:
    """The children's environment; ``blas_threads=None`` leaves BLAS at its library default."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for var in BLAS_VARS:
        if blas_threads is None:
            env.pop(var, None)
        else:
            env[var] = blas_threads
    return env


def spawn(argv: list[str], log: Path, timeout: float, env: dict[str, str] | None = None) -> Sample:
    """Run one child to exit; its own rusage gives CPU time and peak RSS."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env or child_env(), cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {v: TIMED_BLAS_THREADS for v in BLAS_VARS},
        "blas_threads_default_run": "unset (library default)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path, inputs: Inputs, started: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = inputs
        self.input_path = work / "reviews.csv"
        self.input_path.write_text(inputs.text, encoding="utf-8")
        self.started = started
        self.reference: dict[str, str] | None = None  # output digests of the first good run
        self.expected_clean = checks.sorted_lines_digest(inputs.clean_lines)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def cli_args(self, out: Path) -> list[str]:
        args = [self.workload.command, "--input", str(self.input_path), "--out", str(out)]
        return args + (["--seed", str(self.seed)] if self.workload.command == "detect" else [])

    def check(self, out: Path) -> int:
        """Raise if the outputs in ``out`` are wrong; return planted_found."""
        inputs = self.inputs
        if self.workload.command == "detect":
            digests = checks.file_digests(out, checks.REPORT_FILES)
            planted = checks.planted_found(checks.headline_groups(out / "ranked_groups.jsonl"), inputs.truth)
        else:
            digests = checks.file_digests(out, checks.INGEST_FILES)
            counts = checks.ingest_counts(out / "ingest_summary.txt")
            want = {
                "rows_parsed": len(inputs.clean_lines) + inputs.duplicates,
                "row_errors": inputs.malformed,
                "reviews_after_dedupe": len(inputs.clean_lines),
                "duplicates_removed": inputs.duplicates,
            }
            got = {k: counts.get(k) for k in want}
            if got != want:
                raise ValueError(f"ingest_summary.txt counts {got}, injected {want}")
            lines = (out / "reviews_clean.csv").read_text(encoding="utf-8").splitlines()
            if checks.sorted_lines_digest(lines) != self.expected_clean:
                raise ValueError("reviews_clean.csv differs from the rows a correct ingest keeps")
            planted = checks.planted_surviving(lines, inputs.clean_lines, inputs.truth)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            raise ValueError(f"outputs differ from the first run's: {digests} vs {self.reference}")
        return planted

    def setup_times(self) -> list[float]:
        argv = [sys.executable, "-c", "import spamrings.cli"]
        times = []
        for _ in range(SETUP_SPAWNS):
            sample = spawn(argv, self.work / "setup.log", self.remaining())
            if sample.code != 0:
                raise RuntimeError(f"import spamrings.cli failed: {(self.work / 'setup.log').read_text()}")
            times.append(sample.wall)
        return times

    def reference_time(self) -> float:
        sample = spawn([sys.executable, str(REFERENCE)], self.work / "reference.log", self.remaining())
        if sample.code != 0:
            raise RuntimeError(f"reference.py failed: {(self.work / 'reference.log').read_text()[-2000:]}")
        return sample.wall

    def measure(self, seconds: float) -> list[Sample]:
        """Closed-loop CLI runs, each checked and each between two reference runs.

        A run starts only if it should end within ``seconds`` at the pace of
        the one before, after the first ``MIN_RUNS``.
        """
        samples = []
        self.reference_time()  # warm-up: the first fresh process finds cold caches
        loop_start = time.perf_counter()
        refs = [self.reference_time()]
        while True:
            out = self.work / "out"
            shutil.rmtree(out, ignore_errors=True)
            argv = [sys.executable, "-m", "spamrings.cli", *self.cli_args(out)]
            sample = spawn(argv, self.work / "cli.log", self.remaining())
            refs.append(self.reference_time())
            sample.ref = (refs[-2] + refs[-1]) / 2
            samples.append(sample)
            try:
                if sample.code != 0:
                    raise RuntimeError(f"exit {sample.code}: {(self.work / 'cli.log').read_text()[-2000:]}")
                sample.planted = self.check(out)
                sample.ok = True
            except (OSError, ValueError, RuntimeError, KeyError) as err:
                print(f"run {len(samples)}: FAILED: {err}", file=sys.stderr)
            print(
                f"run {len(samples)}: wall {sample.wall:.3f} s  cpu {sample.cpu:.3f} s  "
                f"reference {sample.ref:.3f} s  wall_norm {sample.wall_norm:.3f} s  "
                f"rss {sample.rss_mb:.1f} MiB  planted {sample.planted}  {'ok' if sample.ok else 'FAILED'}"
            )
            elapsed = time.perf_counter() - loop_start
            if len(samples) >= MIN_RUNS and elapsed + refs[-1] + sample.wall > seconds:
                return samples
            if self.remaining() < 2 * (refs[-1] + sample.wall):
                return samples

    def traced(self) -> tuple[dict, Sample]:
        """One traced run; its spans and counters, after the same output checks."""
        out = self.work / "out_traced"
        trace_path = self.work / "trace.json"
        argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(trace_path)]
        sample = spawn(argv + self.cli_args(out), self.work / "traced.log", self.remaining())
        if sample.code != 0:
            raise RuntimeError(f"traced run exit {sample.code}: {(self.work / 'traced.log').read_text()[-2000:]}")
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        stages = [s["name"] for s in trace["spans"] if s["name"] not in ("run", "import")]
        if stages != EXPECTED[self.workload.command]:
            raise ValueError(f"traced stages {stages} differ from {EXPECTED[self.workload.command]}")
        self.check(out)  # byte-identical to the untraced runs
        return trace, sample

    def default_threads(self) -> Sample:
        """One untraced run with BLAS at its library default thread count, checked like the others."""
        out = self.work / "out_default"
        argv = [sys.executable, "-m", "spamrings.cli", *self.cli_args(out)]
        sample = spawn(argv, self.work / "default.log", self.remaining(), env=child_env(None))
        if sample.code != 0:
            raise RuntimeError(f"default-thread run exit {sample.code}: {(self.work / 'default.log').read_text()[-2000:]}")
        self.check(out)
        return sample


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, measured: list[Sample], traced: Sample, default: Sample) -> dict[str, float]:
    took: dict[str, float] = {}
    for s in trace["spans"]:
        took[s["name"]] = took.get(s["name"], 0.0) + s["end"] - s["start"]

    def t(*names: str) -> float:
        return sum(took.get(n, 0.0) for n in names)

    c = defaultdict(float, trace["counters"])  # a stage that did not run counted nothing
    wall = statistics.median(s.wall for s in measured)
    metrics = {
        "reviews.parse_s": t("reviews.parse"),
        "reviews.dedupe_s": t("reviews.dedupe"),
        "reviews.write_s": t("reviews.write"),
        "reviews.rows": c["reviews.rows"],
        "reviews.row_errors": c["reviews.row_errors"],
        "reviews.duplicates_removed": c["reviews.duplicates_removed"],
        "reviews.rows_per_s": _ratio(c["reviews.rows"], t("reviews.parse", "reviews.dedupe", "reviews.write")),
        "graph.build_s": t("graph.build"),
        "graph.matrix_s": t("graph.adjacency", "graph.features"),
        "graph.nodes": c["graph.nodes"],
        "graph.edges": c["graph.edges"],
        "graph.isolated_nodes": c["graph.isolated_nodes"],
        "graph.pair_visits": c["graph.pair_visits"],
        "graph.edge_yield": _ratio(c["graph.edges"], c["graph.pair_visits"]),
        "clustering.train_s": t("clustering.train"),
        "clustering.epochs": c["clustering.epochs"],
        "clustering.epochs_per_s": _ratio(c["clustering.epochs"], t("clustering.train")),
        "clustering.active_share": c["clustering.active_share"],
        "clustering.nonempty_clusters": c["clustering.nonempty_clusters"],
        "clustering.modularity_q": c["clustering.modularity_q"],
        "clustering.final_loss": c["clustering.final_loss"],
        "scoring.extract_s": t("scoring.extract"),
        "scoring.score_s": t("scoring.score"),
        "scoring.rank_s": t("scoring.precision", "scoring.rank"),
        "scoring.groups": c["scoring.groups"],
        "scoring.max_group_size": c["scoring.max_group_size"],
        "scoring.member_pairs": c["scoring.member_pairs"],
        "scoring.pairs_per_s": _ratio(c["scoring.member_pairs"], t("scoring.score")),
        "pipeline.report_s": t("pipeline.report"),
        "pipeline.report_bytes": c["pipeline.report_bytes"],
        "trace.overhead_s": traced.wall - wall,
        "blas_default.wall_s": default.wall,
        "blas_default.cpu_s": default.cpu,
        "run.wall_s": wall,
        "run.cpu_s": statistics.median(s.cpu for s in measured),
        "host.ref_s": statistics.median(s.ref for s in measured),
    }
    if metrics.keys() != PER_LAYER.keys():
        raise RuntimeError("layer metrics out of step with PER_LAYER")
    return metrics


def print_spans(trace: dict) -> None:
    spans = [Span(**s) for s in trace["spans"]]
    total = spans[0].duration
    print("traced spans (seconds; self = duration minus children):")
    for span, own in zip(spans, self_times(spans)):
        depth = 0
        parent = span.parent
        while parent is not None:
            depth, parent = depth + 1, spans[parent].parent
        print(f"  {'  ' * depth}{span.name:<{28 - 2 * depth}} {span.duration:9.4f}  self {own:9.4f}")
    print("layer self time (share of the traced run):")
    for layer, own in sorted(layer_self_times(spans).items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {own:9.4f} s  {own / total:6.1%}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def run(workload: Workload, args, work: Path, started: float) -> None:
    inputs = generate_inputs(workload, args.seed)
    check_fingerprint(workload, args.seed, inputs)
    bench = Bench(workload, args.seed, work, inputs, started)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"input {inputs.fingerprint['rows']} rows  sha256 {inputs.fingerprint['sha256'][:16]}  (fingerprint ok)")

    setup = [] if args.trace else bench.setup_times()
    samples = bench.measure(args.seconds)
    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    measured = [s for s in samples if s.ok] or samples  # a failed run's numbers only when no run passed
    print(f"failed_share {failed / attempted} ratio ({failed} of {attempted} runs)")

    if args.trace:
        attempted += 2
        try:
            trace, sample = bench.traced()
            default = bench.default_threads()
        except (OSError, ValueError, RuntimeError, KeyError) as err:
            print(f"traced or default-thread run FAILED: {err}", file=sys.stderr)
            print(result_line(False, attempted, failed + 1, {}, PER_LAYER))
            return
        print_spans(trace)
        print(f"default-thread run: wall {default.wall:.3f} s  cpu {default.cpu:.3f} s  rss {default.rss_mb:.1f} MiB")
        metrics = layer_metrics(trace, measured, sample, default)
        units = PER_LAYER
    else:
        print(
            f"raw medians: wall {statistics.median(s.wall for s in measured):.4f} s  "
            f"cpu {statistics.median(s.cpu for s in measured):.4f} s  "
            f"reference {statistics.median(s.ref for s in measured):.4f} s (REF_S {REF_S} s)"
        )
        metrics = {
            "wall_norm_s": statistics.median(s.wall_norm for s in measured),
            "cpu_norm_s": statistics.median(s.cpu_norm for s in measured),
            "peak_rss_mb": statistics.median(s.rss_mb for s in measured),
            "setup_s": statistics.median(setup),
            "planted_found": float(statistics.median(s.planted for s in measured)),
        }
        units = END_TO_END
        print(f"setup_s samples {[round(x, 4) for x in setup]}")
    for name, value in metrics.items():
        print(f"{name:<30} {value:.6g} {units[name]}")
    print(result_line(failed == 0, attempted, failed, metrics, units))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spamrings" / "cli.py").is_file():
        print(f"error: no spamrings sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        started = time.perf_counter()
        work = WORK_ROOT / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            run(WORKLOADS[name], args, work, started)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
                WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
