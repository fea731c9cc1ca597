"""Progressive contrastive training for toy text retrieval.

The package couples a curriculum-style contrastive loss (adaptive positive
weights, scaled hard negatives, a momentum-updated bias) with a small
trainable encoder, masked-reconstruction pretraining, hard-negative mining,
and a ranking-metric evaluation harness, all on plain numpy.
"""

import os

# OpenBLAS reads its thread count when numpy is first imported, so it is set
# before any import of numpy. Its products round differently at 1 thread
# than at 2 or more, so one thread everywhere keeps a run's bytes the same
# whatever the core count or the caller's setting (hence an assignment, not
# setdefault). It also starts no worker thread, whose spin-waiting slowed
# every process's start.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .loss import (  # noqa: E402
    BatchSimilarities,
    HyperParams,
    MomentumState,
    batch_threshold,
    info_nce,
    positive_weights,
    progressive_loss,
    update_momentum,
)
from .similarity import cosine, sim_matrix  # noqa: E402

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
