"""Run one spamrings CLI command in-process, with a span around each stage call.

    python3 perfbench/traced_cli.py TRACE_JSON COMMAND [ARGS...]

Each stage function is wrapped in the namespace of the module that calls
it (``cli`` for ``cmd_detect``/``cmd_ingest``, ``pipeline`` for
``load_table`` and ``detect``), and the command itself is the real
``spamrings.cli.main``. The spans therefore follow the program's own call
sequence; the benchmark checks that sequence against ``EXPECTED`` and the
outputs against an untraced run. Spans and layer counters go to
TRACE_JSON when the command returns.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from tracing import Recorder, isolated_nodes, modularity_q, pair_visits

# (module, name the caller looks up, span name)
STAGES = [
    ("cli", "load_table", "pipeline.load_table"),
    ("cli", "detect", "pipeline.detect"),
    ("cli", "write_detect_report", "pipeline.report"),
    ("cli", "write_reviews", "reviews.write"),
    ("pipeline", "parse_reviews", "reviews.parse"),
    ("pipeline", "dedupe", "reviews.dedupe"),
    ("pipeline", "build_graph", "graph.build"),
    ("pipeline", "adjacency_sparse", "graph.adjacency"),
    ("pipeline", "node_features", "graph.features"),
    ("pipeline", "train", "clustering.train"),
    ("pipeline", "extract_candidate_groups", "scoring.extract"),
    ("pipeline", "score_groups", "scoring.score"),
    ("pipeline", "attach_precision", "scoring.precision"),
    ("pipeline", "rank_groups", "scoring.rank"),
]

_LOAD = ["pipeline.load_table", "reviews.parse", "reviews.dedupe"]

# Stage spans of each command, in call order (the root and import spans excluded).
EXPECTED = {
    "detect": ["cli.detect", *_LOAD, "pipeline.detect", "graph.build", "graph.adjacency",
               "graph.features", "clustering.train", "scoring.extract", "scoring.score",
               "scoring.precision", "scoring.rank", "pipeline.report"],
    "ingest": ["cli.ingest", *_LOAD, "reviews.write"],
}


def layer_counters(calls: dict) -> dict[str, float]:
    """Work counts of each layer, from the arguments and results of its calls."""
    import numpy as np  # after the run, so the import span pays for numpy

    out: dict[str, float] = {}
    if "reviews.parse" in calls:
        raw, errors = calls["reviews.parse"][2]
        out["reviews.rows"] = len(raw)
        out["reviews.row_errors"] = len(errors)
    if "reviews.dedupe" in calls:
        (raw, *_), _, table = calls["reviews.dedupe"]
        out["reviews.duplicates_removed"] = len(raw) - len(table)
    if "graph.build" in calls:
        graph = calls["graph.build"][2]
        out["graph.nodes"] = len(graph.nodes)
        out["graph.edges"] = len(graph.edges)
        out["graph.isolated_nodes"] = isolated_nodes(graph)
        out["graph.pair_visits"] = pair_visits(graph)
    if "clustering.train" in calls:
        (adj, *_), _, result = calls["clustering.train"]
        labels = result.assignment.argmax(axis=1)
        degree = np.asarray(adj.sum(axis=1)).ravel()
        out["clustering.epochs"] = len(result.loss_trace)
        out["clustering.final_loss"] = result.final_loss
        out["clustering.nonempty_clusters"] = len(np.unique(labels))
        out["clustering.modularity_q"] = modularity_q(adj, labels)
        out["clustering.active_share"] = np.count_nonzero(degree) / len(degree)
    if "scoring.score" in calls:
        sizes = [sg.size for sg in calls["scoring.score"][2]]
        out["scoring.groups"] = len(sizes)
        out["scoring.max_group_size"] = max(sizes, default=0)
        out["scoring.member_pairs"] = sum(s * (s - 1) // 2 for s in sizes)
    if "pipeline.report" in calls:
        paths = calls["pipeline.report"][2]
        out["pipeline.report_bytes"] = sum(Path(p).stat().st_size for p in paths.values())
    return {k: float(v) for k, v in out.items()}


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    with rec.span("run"):
        with rec.span("import"):
            from spamrings import cli, pipeline
        modules = {"cli": cli, "pipeline": pipeline}
        for module, attr, name in STAGES:
            target = modules[module]
            setattr(target, attr, rec.wrap(name, getattr(target, attr)))
        command = cli_args[0]
        cli.COMMANDS[command] = rec.wrap(f"cli.{command}", cli.COMMANDS[command])
        code = cli.main(cli_args)
    trace = {
        "exit": code,
        "spans": [dataclasses.asdict(s) for s in rec.spans],
        "counters": layer_counters(rec.calls),
    }
    Path(trace_path).write_text(json.dumps(trace), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
