"""Ground-remote alignment at desk scale: train a small satellite-tile encoder
against a frozen ground-image/text embedding space with multi-positive
contrastive losses, then evaluate zero-shot classification, retrieval,
segmentation and density mapping on a synthetic geospatial world.
"""

import os

# One BLAS thread unless the caller chose: a threaded GEMM's sums, and so the
# pixel loss's checkpoints, follow the thread count. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
