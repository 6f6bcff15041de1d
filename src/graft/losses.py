"""Multi-positive contrastive alignment losses with analytic gradients.

One anchor (a satellite image embedding, or the embedding of the patch under a
ground image's geotag) has several positives: every ground image taken inside
its footprint. The denominator of each softmax term runs over *all* ground
images of *all* tiles in the batch, so other tiles' grounds act as negatives.
With one ground per tile everything reduces to the standard one-positive
contrastive loss.

All functions return (value, gradient) pairs. Gradients are ambient-space
derivatives with respect to the anchor embeddings (normalization of the
anchors happens upstream in the encoder and is differentiated there). Every
softmax variant goes through one kernel, `_softmax_mix`: a max-shifted
log-sum-exp computed in place, so logits of magnitude several hundred stay
finite and the (anchors x grounds) logit matrix is the only buffer of its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frozen import DegenerateEmbeddingError

VARIANTS = ("image_default", "pixel_default", "sum_prob", "avg_rep", "l2")

#: Anchors and grounds must be unit vectors within this L2-norm deviation.
UNIT_TOL = 1e-6


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.07
    variant: str = "image_default"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}; choose from {VARIANTS}")


@dataclass
class GroundGroup:
    """The ground-image embeddings paired with one tile, plus their raw mean."""

    embeddings: np.ndarray  # (N_i, D), unit rows
    mean: np.ndarray  # (D,), arithmetic mean of rows, not normalized

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1:
            raise ValueError("GroundGroup needs a (N_i, D) array with N_i >= 1")
        if np.max(np.abs(self.mean - self.embeddings.mean(axis=0))) > 1e-12:
            raise ValueError("stored mean differs from the arithmetic mean of members")

    @classmethod
    def from_embeddings(cls, embeddings: np.ndarray) -> "GroundGroup":
        embeddings = np.asarray(embeddings, dtype=np.float64)
        return cls(embeddings=embeddings, mean=embeddings.mean(axis=0))

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


def _require_unit(name: str, rows: np.ndarray) -> None:
    dev = np.abs(np.linalg.norm(rows, axis=-1) - 1.0)
    worst = float(np.max(dev)) if dev.size else 0.0
    if worst > UNIT_TOL:
        raise ValueError(f"{name} must be unit-norm; worst deviation {worst:.3e}")


def _flatten(groups: Sequence[GroundGroup]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate group members; returns (grounds (M, D), owner (M,), sizes (N_B,))."""
    if not groups:
        raise ValueError("need at least one ground group")
    sizes = np.array([g.size for g in groups])
    owner = np.repeat(np.arange(len(groups)), sizes)
    grounds = np.concatenate([g.embeddings for g in groups], axis=0)
    return grounds, owner, sizes


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
    ground_groups: Sequence[GroundGroup],
    tau: float,
    validate: bool = True,
) -> tuple[float, np.ndarray]:
    """Image-level multi-positive loss and its gradient wrt the tile embeddings.

    value = mean over tiles i of mean over that tile's grounds j of
    -log softmax(s_i . g_i^j / tau), softmax taken over every ground in the
    batch. grad[i] = (softmax-weighted ground mean - own-group mean) / (N_B tau).
    """
    sat_embs = np.asarray(sat_embs, dtype=np.float64)
    grounds, owner, sizes = _flatten(ground_groups)
    n_b = sat_embs.shape[0]
    if n_b != len(ground_groups):
        raise ValueError("one ground group per satellite embedding required")
    if validate:
        _require_unit("sat_embs", sat_embs)
        _require_unit("ground embeddings", grounds)

    scaled = sat_embs / tau
    lse, mix = _softmax_mix(scaled @ grounds.T, grounds)  # over (N_B, M) logits
    own_logit = np.einsum("ij,ij->i", scaled[owner], grounds)  # s_i . g_i^j / tau
    value = float(np.sum((lse[owner] - own_logit) / sizes[owner]) / n_b)

    group_means = np.stack([g.mean for g in ground_groups], axis=0)
    grad = (mix - group_means) / (n_b * tau)
    return value, grad


def pixel_loss_anchors(
    anchors: np.ndarray,
    ground_groups: Sequence[GroundGroup],
    tau: float,
    validate: bool = True,
) -> tuple[float, np.ndarray]:
    """Pixel-level loss on pre-gathered anchors, one row per (tile, ground) pair.

    Row r of `anchors` is the embedding of the patch containing ground r's
    geotag, with rows ordered exactly like the flattened ground groups; the
    positive of row r is ground r, the denominator is every ground in the batch.
    Returns the gradient wrt each anchor row (duplicates are kept separate; the
    caller accumulates them onto shared patches).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    grounds, owner, sizes = _flatten(ground_groups)
    if anchors.shape != grounds.shape:
        raise ValueError(
            f"anchors shape {anchors.shape} must match flattened grounds {grounds.shape}"
        )
    if validate:
        _require_unit("anchors", anchors)
        _require_unit("ground embeddings", grounds)

    n_b = len(ground_groups)
    scaled = anchors / tau
    lse, mix = _softmax_mix(scaled @ grounds.T, grounds)  # the one (M, M) buffer
    own_logit = np.einsum("ij,ij->i", scaled, grounds)  # row r's own pair
    weight = 1.0 / (n_b * sizes[owner])  # per-pair weight 1/(N_B N_i)
    value = float(np.sum(weight * (lse - own_logit)))
    grad = weight[:, None] * (mix - grounds) / tau
    return value, grad


def loss_sum_prob(
    sat_embs: np.ndarray,
    ground_groups: Sequence[GroundGroup],
    tau: float,
    validate: bool = True,
) -> tuple[float, np.ndarray]:
    """Log-of-mean-probability variant: the log sits outside the inner sum.

    value = mean over tiles of -log(mean over own grounds of the batch softmax
    probability). Equal to image_loss whenever every tile has one ground.
    """
    sat_embs = np.asarray(sat_embs, dtype=np.float64)
    grounds, owner, sizes = _flatten(ground_groups)
    n_b = sat_embs.shape[0]
    if n_b != len(ground_groups):
        raise ValueError("one ground group per satellite embedding required")
    if validate:
        _require_unit("sat_embs", sat_embs)
        _require_unit("ground embeddings", grounds)

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
    ground_groups: Sequence[GroundGroup],
    tau: float,
    validate: bool = True,
) -> tuple[float, np.ndarray]:
    """One-positive contrastive loss against normalized mean ground embeddings.

    Each tile's positive is its group's normalized mean; other tiles' normalized
    means are the negatives. A group whose members cancel (near-zero mean norm)
    has no direction and raises DegenerateEmbeddingError.
    """
    sat_embs = np.asarray(sat_embs, dtype=np.float64)
    n_b = sat_embs.shape[0]
    if n_b != len(ground_groups):
        raise ValueError("one ground group per satellite embedding required")
    if validate:
        _require_unit("sat_embs", sat_embs)
        for g in ground_groups:
            _require_unit("ground embeddings", g.embeddings)

    means = np.stack([g.mean for g in ground_groups], axis=0)
    norms = np.linalg.norm(means, axis=1)
    if np.any(norms < 1e-9):
        bad = int(np.argmin(norms))
        raise DegenerateEmbeddingError(
            f"ground group {bad} has degenerate mean (norm {norms[bad]:.3e})"
        )
    z_hat = means / norms[:, None]

    scaled = sat_embs / tau
    lse, mix = _softmax_mix(scaled @ z_hat.T, z_hat)  # over (N_B, N_B) logits
    value = float(np.mean(lse - np.einsum("ij,ij->i", scaled, z_hat)))
    grad = (mix - z_hat) / (n_b * tau)
    return value, grad


def loss_l2(
    sat_embs: np.ndarray,
    ground_groups: Sequence[GroundGroup],
    validate: bool = True,
) -> tuple[float, np.ndarray]:
    """Pure attraction: mean over tiles of mean squared distance to own grounds.

    No temperature and no negatives; nothing pushes different tiles apart.
    """
    sat_embs = np.asarray(sat_embs, dtype=np.float64)
    n_b = sat_embs.shape[0]
    if n_b != len(ground_groups):
        raise ValueError("one ground group per satellite embedding required")
    if validate:
        _require_unit("sat_embs", sat_embs)
        for g in ground_groups:
            _require_unit("ground embeddings", g.embeddings)

    value = 0.0
    grad = np.zeros_like(sat_embs)
    for i, g in enumerate(ground_groups):
        diffs = sat_embs[i] - g.embeddings  # (N_i, D)
        value += float(np.mean(np.sum(diffs * diffs, axis=1)))
        grad[i] = 2.0 * (sat_embs[i] - g.mean) / n_b
    return value / n_b, grad
