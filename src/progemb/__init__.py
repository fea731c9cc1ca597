"""Progressive contrastive training for toy text retrieval.

The package couples a curriculum-style contrastive loss (adaptive positive
weights, scaled hard negatives, a momentum-updated bias) with a small
trainable encoder, masked-reconstruction pretraining, hard-negative mining,
and a ranking-metric evaluation harness, all on plain numpy.
"""

from .loss import (
    BatchSimilarities,
    HyperParams,
    MomentumState,
    batch_threshold,
    info_nce,
    positive_weights,
    progressive_loss,
    update_momentum,
)
from .similarity import cosine, sim_matrix

__version__ = "0.1.0"

__all__ = [
    "BatchSimilarities",
    "HyperParams",
    "MomentumState",
    "batch_threshold",
    "cosine",
    "info_nce",
    "positive_weights",
    "progressive_loss",
    "sim_matrix",
    "update_momentum",
    "__version__",
]
