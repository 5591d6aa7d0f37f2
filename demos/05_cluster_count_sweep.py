#!/usr/bin/env python3
"""Effect of the cluster count k on candidate-group precision.

Runs the clustering at several k on a labeled synthetic dataset and
reports the mean precision of the ten most precise candidate groups per
k, skipping the indicator ranking entirely. On planted synthetics the
component-refined extraction keeps the planted groups intact across a
wide k range, so the profile is flat; on real review data, where the
graph is one big connected blob, k is the knob that matters.
"""

from spamrings.clustering import TrainConfig
from spamrings.pipeline import PipelineConfig, sweep
from spamrings.reviews import dedupe, review_columns
from spamrings.synth import PlantedGroupConfig, SynthConfig, generate

synth = SynthConfig(
    n_reviewers=600,
    n_products=120,
    reviews_per_reviewer=4,
    planted=[PlantedGroupConfig(size=s, n_targets=4) for s in (15, 20, 30)],
    seed=2,
)
table, truth = generate(synth)
table = review_columns(dedupe(table))
print(f"dataset: {len(table)} reviews, planted sizes {[len(g) for g in truth]}")

# the run seed derives the training seed, exactly as in a detect run
points = sweep(table, PipelineConfig(seed=3, train=TrainConfig(epochs=300)), [4, 8, 16, 32, 64])
print("\nk     groups  mean(top-10 precision)  partial")
for p in points:
    mean = "n/a" if p.mean_top_precision is None else f"{p.mean_top_precision:.3f}"
    print(f"{p.n_clusters:<5d} {p.n_groups:6d}  {mean:>22}  {p.partial}")
