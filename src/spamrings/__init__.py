"""Unsupervised detection of collusive fake-reviewer groups in review metadata.

The pipeline: reviews -> product-rating graph -> modularity-driven graph
clustering -> candidate groups -> anomaly indicators -> ranked suspicious
groups.
"""

__version__ = "0.1.0"
