#!/usr/bin/env python3
"""Training the clusterer on a planted two-community graph.

Two 5-cliques joined by a single bridge edge: the network should learn a
soft assignment that puts each clique in its own cluster. Also runs the
finite-difference gradient check that guards the hand-written backward
pass.
"""

import numpy as np

from spamrings.clustering import TrainConfig, gradient_check, train
from spamrings.modularity import modularity

adj = np.zeros((10, 10))
for base in (0, 5):
    for i in range(base, base + 5):
        for j in range(i + 1, base + 5):
            adj[i, j] = adj[j, i] = 1.0
adj[4, 5] = adj[5, 4] = 1.0  # the bridge

feats = np.eye(10)  # identity features break the mirror symmetry
config = TrainConfig(n_clusters=2)

check = gradient_check(adj, feats, TrainConfig(n_clusters=2, hidden_width=16), seed=0)
print(f"gradient check, worst relative error: {check:.2e}")

result = train(adj, feats, config, seed=0)
print(f"loss: {result.initial_loss:.4f} at init -> {result.final_loss:.4f} after {config.epochs} epochs")

labels = result.assignment.argmax(axis=1)
print(f"argmax clusters per node: {labels}")
print(f"Q of the learned partition: {modularity(adj, labels):.4f}")
print(f"Q of the planted split:     {modularity(adj, [0]*5 + [1]*5):.4f}")

print("\nsoft assignment rows (node: p(cluster 0), p(cluster 1)):")
for i, row in enumerate(result.assignment):
    print(f"  node {i}: {row[0]:.3f}  {row[1]:.3f}")

# each node's argmax cluster and any other cluster at or above assign_threshold
for cid, column in enumerate(result.clusters.T):
    if column.any():
        print(f"cluster {cid}: nodes {np.flatnonzero(column).tolist()}")
print("(the bridge endpoints may hold enough probability to sit in both)")
