"""Unsupervised detection of collusive fake-reviewer groups in review metadata.

The pipeline: reviews -> product-rating graph -> modularity-driven graph
clustering -> candidate groups -> anomaly indicators -> ranked suspicious
groups.
"""

__version__ = "0.1.0"

from .reviews import (  # noqa: F401
    LABEL_FAKE,
    LABEL_GENUINE,
    LABEL_UNKNOWN,
    ProductStats,
    Review,
    ReviewTable,
    dedupe,
    parse_reviews,
    product_stats,
    write_reviews,
)
from .graph import (  # noqa: F401
    PRGraph,
    adjacency_sparse,
    build_graph,
    node_features,
)
from .modularity import (  # noqa: F401
    brute_force_best_partition,
    degree_vector,
    modularity,
    modularity_matrix,
)
from .clustering import (  # noqa: F401
    GCNParams,
    TrainConfig,
    TrainResult,
    assign_clusters,
    clustering_loss,
    gradient_check,
    train,
)
from .indicators import (  # noqa: F401
    CandidateGroup,
    IndicatorVector,
    extract_group,
    group_indicators,
)
from .scoring import (  # noqa: F401
    ScoredGroup,
    group_precision,
    rank_groups,
    score_groups,
)
from .synth import PlantedGroupConfig, SynthConfig, generate  # noqa: F401
from .pipeline import DetectResult, PipelineConfig, detect, sweep  # noqa: F401
