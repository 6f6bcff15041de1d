"""Multi-positive contrastive alignment losses with analytic gradients.

One anchor (a satellite image embedding, or the embedding of the patch under a
ground image's geotag) has several positives: every ground image taken inside
its footprint. The denominator of each softmax term runs over *all* ground
images of *all* tiles in the batch, so other tiles' grounds act as negatives.
With one ground per tile everything reduces to the standard one-positive
contrastive loss. The two multi-positive forms are SupCon's L_out
(`image_loss`) and L_in (`loss_sum_prob`) of Khosla et al. 2020.

The positives of a batch come as CSR arrays, exactly as `PairBatch` holds
them: `grounds` (M, D) lists tile 0's ground embeddings, then tile 1's, and
so on, and `sizes` (N_B,) counts each tile's grounds.

All functions return (value, gradient) pairs. Gradients are ambient-space
derivatives with respect to the anchor embeddings (normalization of the
anchors happens upstream in the encoder and is differentiated there). Anchors
and grounds are taken to be unit vectors, unchecked: training checks each
encoder output, and a fixture checks its rows when it is built. Every
softmax variant goes through one kernel, `_softmax_mix`: a max-shifted
log-sum-exp computed in place, so logits of magnitude several hundred stay
finite and the (anchors x grounds) logit matrix is the only buffer of its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frozen import UNIT_NORM_TOL, DegenerateEmbeddingError

VARIANTS = ("image_default", "pixel_default", "sum_prob", "avg_rep", "l2")


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.07
    variant: str = "image_default"

    def __post_init__(self):
        if not (0 < self.tau < math.inf):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}; choose from {VARIANTS}")


def _positives(
    anchors: np.ndarray, grounds: np.ndarray, sizes: np.ndarray, per_pair: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shape-checked float64 (anchors, grounds, sizes) plus owner (M,), each ground's tile.

    There is one anchor per tile, or with `per_pair` one per ground row.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    grounds = np.asarray(grounds, dtype=np.float64)
    sizes = np.asarray(sizes)
    if grounds.ndim != 2 or sizes.ndim != 1 or not sizes.size or np.any(sizes < 1) \
            or sizes.sum() != len(grounds):
        raise ValueError(f"need (M, D) grounds and N_B >= 1 group sizes >= 1 summing to M; "
                         f"got grounds {grounds.shape}, sizes {sizes.tolist()}")
    want = grounds.shape if per_pair else (len(sizes), grounds.shape[1])
    if anchors.shape != want:
        raise ValueError(f"anchors shape {anchors.shape} must be {want}")
    return anchors, grounds, sizes, np.repeat(np.arange(len(sizes)), sizes)


def _group_means(grounds: np.ndarray, owner: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(N_B, D) raw means of each tile's grounds, accumulated in pair order.

    np.add.at adds each group's rows one after another, as a per-group
    `.mean(axis=0)` does, so the means are bit-identical to it.
    """
    sums = np.zeros((len(sizes), grounds.shape[1]))
    np.add.at(sums, owner, grounds)
    return sums / sizes[:, None]


def _softmax_mix(logits: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-sum-exp of `logits` and the softmax-weighted sum of `values` rows.

    The one contrastive kernel behind every softmax variant. It makes a single
    max-shifted exp pass in place and normalizes the (rows, D) product instead
    of the logits, so no temporary of the logits' size is allocated. `logits`
    must be a fresh buffer owned by the caller: it is overwritten.
    Returns (lse (R,), softmax(logits) @ values (R, D)).
    """
    m = np.max(logits, axis=1, keepdims=True)
    logits -= m
    np.exp(logits, out=logits)
    sums = np.sum(logits, axis=1, keepdims=True)
    return (m + np.log(sums))[:, 0], (logits @ values) / sums


def image_loss(
    sat_embs: np.ndarray,
    grounds: np.ndarray,
    sizes: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray]:
    """Image-level multi-positive loss (SupCon's L_out: the log sits inside the mean).

    value = mean over tiles i of mean over that tile's grounds j of
    -log softmax(s_i . g_i^j / tau), softmax taken over every ground in the
    batch. grad[i] = (softmax-weighted ground mean - own-group mean) / (N_B tau).
    """
    sat_embs, grounds, sizes, owner = _positives(sat_embs, grounds, sizes)
    n_b = len(sizes)
    scaled = sat_embs / tau
    lse, mix = _softmax_mix(scaled @ grounds.T, grounds)  # over (N_B, M) logits
    own_logit = np.einsum("ij,ij->i", scaled[owner], grounds)  # s_i . g_i^j / tau
    value = float(np.sum((lse[owner] - own_logit) / sizes[owner]) / n_b)
    grad = (mix - _group_means(grounds, owner, sizes)) / (n_b * tau)
    return value, grad


def pixel_loss_anchors(
    anchors: np.ndarray,
    grounds: np.ndarray,
    sizes: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray]:
    """Pixel-level loss on pre-gathered anchors, one row per (tile, ground) pair.

    Row r of `anchors` is the embedding of the patch containing ground r's
    geotag, so anchors and grounds share one row order; the positive of row r
    is ground r, the denominator is every ground in the batch. Returns the
    gradient wrt each anchor row (duplicates are kept separate; the caller
    accumulates them onto shared patches).
    """
    anchors, grounds, sizes, owner = _positives(anchors, grounds, sizes, per_pair=True)
    scaled = anchors / tau
    lse, mix = _softmax_mix(scaled @ grounds.T, grounds)  # the one (M, M) buffer
    own_logit = np.einsum("ij,ij->i", scaled, grounds)  # row r's own pair
    weight = 1.0 / (len(sizes) * sizes[owner])  # per-pair weight 1/(N_B N_i)
    value = float(np.sum(weight * (lse - own_logit)))
    grad = weight[:, None] * (mix - grounds) / tau
    return value, grad


def loss_sum_prob(
    sat_embs: np.ndarray,
    grounds: np.ndarray,
    sizes: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray]:
    """Log-of-mean-probability variant (SupCon's L_in: the log sits outside the mean).

    value = mean over tiles of -log(mean over own grounds of the batch softmax
    probability). Equal to image_loss whenever every tile has one ground.
    """
    sat_embs, grounds, sizes, owner = _positives(sat_embs, grounds, sizes)
    n_b = len(sizes)
    logits = (sat_embs / tau) @ grounds.T
    own_logits = np.where(owner == np.arange(n_b)[:, None], logits, -np.inf)
    lse, mix = _softmax_mix(logits, grounds)
    own_lse, own_mix = _softmax_mix(own_logits, grounds)
    # -log((1/N_i) sum_own exp(l)/Z) = lse - (lse_own - log N_i)
    value = float(np.mean(lse - own_lse + np.log(sizes)))
    grad = (mix - own_mix) / (n_b * tau)
    return value, grad


def loss_avg_rep(
    sat_embs: np.ndarray,
    grounds: np.ndarray,
    sizes: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray]:
    """One-positive contrastive loss against normalized mean ground embeddings.

    Each tile's positive is its group's normalized mean; other tiles' normalized
    means are the negatives. A group whose members cancel (near-zero mean norm)
    has no direction and raises DegenerateEmbeddingError.
    """
    sat_embs, grounds, sizes, owner = _positives(sat_embs, grounds, sizes)
    means = _group_means(grounds, owner, sizes)
    norms = np.linalg.norm(means, axis=1)
    if np.any(norms < UNIT_NORM_TOL):
        bad = int(np.argmin(norms))
        raise DegenerateEmbeddingError(
            f"ground group {bad} has degenerate mean (norm {norms[bad]:.3e})"
        )
    z_hat = means / norms[:, None]

    scaled = sat_embs / tau
    lse, mix = _softmax_mix(scaled @ z_hat.T, z_hat)  # over (N_B, N_B) logits
    value = float(np.mean(lse - np.einsum("ij,ij->i", scaled, z_hat)))
    grad = (mix - z_hat) / (len(sizes) * tau)
    return value, grad


def loss_l2(
    sat_embs: np.ndarray,
    grounds: np.ndarray,
    sizes: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Pure attraction: mean over tiles of mean squared distance to own grounds.

    No temperature and no negatives; nothing pushes different tiles apart.
    """
    sat_embs, grounds, sizes, owner = _positives(sat_embs, grounds, sizes)
    n_b = len(sizes)
    diffs = sat_embs[owner] - grounds  # (M, D)
    value = float(np.sum(np.sum(diffs * diffs, axis=1) / sizes[owner]) / n_b)
    grad = 2.0 * (sat_embs - _group_means(grounds, owner, sizes)) / n_b
    return value, grad
