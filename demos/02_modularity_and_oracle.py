#!/usr/bin/env python3
"""Modularity basics on toy graphs.

Shows the per-cluster sum the pipeline computes agreeing with the matrix
trace form (1/2m) Tr(Cᵀ B C), on a dense array and on its sparse form,
plus the classic results: two disjoint triangles split at Q = 0.5, and
no split of a complete graph beats leaving it whole. The exhaustive
partition search the tests use as an oracle lives in tests/oracles.py.
"""

from itertools import product

import numpy as np
import scipy.sparse as sp

from spamrings.modularity import modularity

# two disjoint triangles
adj = np.zeros((6, 6))
for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
    adj[i, j] = adj[j, i] = 1.0

deg = adj.sum(axis=1)
two_m = deg.sum()
print(f"degrees {deg}, total weight 2m = {two_m}")

split = [0, 0, 0, 1, 1, 1]
print(f"Q(triangle split)    = {modularity(adj, split):.4f}")
print(f"Q(everything as one) = {modularity(adj, [0] * 6):.4f}")
print(f"same split, CSR form = {modularity(sp.csr_array(adj), split):.4f}")

# the trace form (1/2m) Tr(C^T B C), with B = A - d d^T / 2m, is the same number
b = adj - np.outer(deg, deg) / two_m
c = np.eye(2)[split]
print(f"trace form           = {np.trace(c.T @ b @ c) / two_m:.4f}")
print(f"row sums of B are zero: {np.allclose(b.sum(axis=1), 0)}")

# a complete graph has no community structure: every proper 2-split scores below 0
k4 = np.ones((4, 4)) - np.eye(4)
best = max(modularity(k4, [0, *rest]) for rest in product((0, 1), repeat=3))
print(f"\nK4: best Q over all 2-splits = {best:.4f} (the whole graph as one cluster)")

# a random weighted graph, labeled at random 200 times
rng = np.random.default_rng(0)
adj = np.zeros((7, 7))
for i in range(7):
    for j in range(i + 1, 7):
        if rng.random() < 0.5:
            adj[i, j] = adj[j, i] = rng.integers(1, 4)
random_qs = [modularity(adj, rng.integers(0, 3, size=7)) for _ in range(200)]
print(f"random weighted graph: best of 200 random 3-labelings Q = {max(random_qs):.4f}")
