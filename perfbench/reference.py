"""Fixed reference work that gauges how fast the host runs at the moment.

    python3 perfbench/reference.py

The benchmark times this script in a fresh process next to every CLI run.
It does the two kinds of work the CLI spends its time on, in about equal
parts: Python object work (parse rows, group them into sets, compare the
sets, as ingest and the indicators do) and single-threaded dense linear
algebra (as GCN training does). It reads and writes nothing and imports
nothing from spamrings, so a change to the program cannot change its time;
only the host can.
"""

import random

import numpy as np


def python_objects() -> float:
    rng = random.Random(0)
    lines = [f"u{rng.randrange(20000)},p{rng.randrange(3000)},{rng.randrange(1, 6)}" for _ in range(120000)]
    by_user: dict[str, set[str]] = {}
    for line in lines:
        user, product, _ = line.split(",")
        by_user.setdefault(user, set()).add(product)
    sets = [frozenset(s) for s in by_user.values()][:1200]
    return sum(len(a & b) / len(a | b) for i, a in enumerate(sets) for b in sets[i + 1 : i + 100])


def dense_algebra() -> float:
    x = np.random.default_rng(0).standard_normal((320, 320))
    for _ in range(240):
        x = np.tanh(x @ x.T / 320)
    return float(x.sum())


if __name__ == "__main__":
    python_objects()
    dense_algebra()
