"""Trainable satellite encoder: per-patch two-layer MLP into the frozen space.

Each raster patch's raw feature vector is mapped F -> H -> D through a tanh
hidden layer; the per-patch embedding is the L2-normalized output. The
image-level embedding pools the *pre-normalization* patch outputs with learned
softmax weights (uniform at init) and normalizes the pooled vector. Since the
output layer is affine and the weights sum to 1, pooling happens on the hidden
layer: `image_forward` runs layer 1 over blocks of whole tiles, pools each
tile's hidden rows, and runs layer 2 once on the pooled (B, H) rows;
`image_backward` mirrors it. Both normalizations are part of the forward map
and are differentiated through in the manual backward passes.

The image-level pass divides by no patch norm, so it checks only its pooled
outputs against the 1e-12 norm floor; the patch-level pass checks each patch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frozen import DegenerateEmbeddingError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "pool_logits")

_NORM_FLOOR = 1e-12

# Patch rows per layer-1 block of the image-level pass (whole tiles only).
# Blocking bounds embed_images' memory to one block and keeps a block's
# temporaries near cache size: a 32-tile train batch of 196-patch tiles timed
# alike in blocks of 2 to 8 tiles and 3-16% slower as one block (Xeon, 2 MiB
# L2 per core).
IMAGE_BLOCK_ROWS = 1536


@dataclass
class SatEncoderParams:
    w1: np.ndarray  # (H, F)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (D, H)
    b2: np.ndarray  # (D,)
    pool_logits: np.ndarray  # (n_patches,)

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    @property
    def n_patches(self) -> int:
        return self.pool_logits.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def check_finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.arrays().values())


def init_params(
    feature_dim: int, hidden_dim: int, embed_dim: int, n_patches: int, seed: int = 0
) -> SatEncoderParams:
    """Seeded init: fan-in scaled gaussian weights, zero biases, uniform pooling."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A7E]))
    return SatEncoderParams(
        w1=rng.standard_normal((hidden_dim, feature_dim)) / np.sqrt(feature_dim),
        b1=np.zeros(hidden_dim),
        w2=rng.standard_normal((embed_dim, hidden_dim)) / np.sqrt(hidden_dim),
        b2=np.zeros(embed_dim),
        pool_logits=np.zeros(n_patches),
    )


@dataclass
class ForwardCache:
    """Intermediates of a patch-level forward pass, consumed by encoder_backward."""

    x: np.ndarray  # (P, F)
    h: np.ndarray  # (P, H) post-tanh
    y_norms: np.ndarray  # (P,)
    patch_embs: np.ndarray  # (P, D) unit rows


@dataclass
class ImageCache:
    """Intermediates of image_forward, consumed by image_backward."""

    blocks: list[tuple[int, np.ndarray, np.ndarray]]  # (first tile, x (rows, F), h (rows, H))
    alpha: np.ndarray  # (P,) pooling weights
    h_img: np.ndarray  # (B, H) pooled hidden rows
    img_norms: np.ndarray  # (B,)
    image_embs: np.ndarray  # (B, D) unit rows


def _norms(y: np.ndarray) -> np.ndarray:
    """L2 norms of the rows of a real (N, D) array, as np.linalg.norm(y, axis=1)."""
    return np.sqrt(np.add.reduce(y * y, axis=1))


def _normalize_rows(y: np.ndarray, message: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of y and their norms; a norm below the floor raises with `message`."""
    norms = _norms(y)
    if np.any(norms < _NORM_FLOOR):
        raise DegenerateEmbeddingError(message)
    return y / norms[:, None], norms


def _hidden(params: SatEncoderParams, x: np.ndarray) -> np.ndarray:
    """Post-tanh hidden rows (N, H) of (N, F) feature rows."""
    h = x @ params.w1.T
    h += params.b1
    return np.tanh(h, out=h)


def _output(params: SatEncoderParams, h: np.ndarray) -> np.ndarray:
    """Pre-normalization outputs (N, D) of (N, H) hidden rows."""
    y = h @ params.w2.T
    y += params.b2
    return y


def _pool_weights(params: SatEncoderParams) -> np.ndarray:
    alpha = np.exp(params.pool_logits - np.max(params.pool_logits))
    return alpha / alpha.sum()


def _pooled_head(
    params: SatEncoderParams, h_img: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Layer 2 on (B, H) pooled hidden rows: unit image embeddings and their norms.

    Pooling the hidden layer before layer 2 equals pooling the patch outputs
    because layer 2 is affine and the pooling weights sum to 1.
    """
    return _normalize_rows(_output(params, h_img), "pooled image output collapsed to zero norm")


def forward_patch_rows(
    params: SatEncoderParams, features_rows: np.ndarray
) -> tuple[np.ndarray, ForwardCache]:
    """Embed a subset of patches (rows of raw features); no pooling involved."""
    x = np.asarray(features_rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.feature_dim:
        raise ValueError(
            f"features shape {x.shape} incompatible with feature_dim {params.feature_dim}"
        )
    h = _hidden(params, x)
    patch_embs, y_norms = _normalize_rows(
        _output(params, h), "patch output collapsed to zero norm; cannot normalize")
    return patch_embs, ForwardCache(x=x, h=h, y_norms=y_norms, patch_embs=patch_embs)


def _image_blocks(params: SatEncoderParams, grids: Sequence[np.ndarray], alpha: np.ndarray):
    """Layer 1 over whole tiles, IMAGE_BLOCK_ROWS patch rows at a time; yields
    (first tile, x, h, pooled h) per block."""
    n_patches = params.n_patches
    per_block = max(1, IMAGE_BLOCK_ROWS // n_patches)
    for start in range(0, len(grids), per_block):
        block = np.array(grids[start : start + per_block], dtype=np.float64)
        if block.ndim != 4:
            raise ValueError(f"expected (G, G, F) feature grids, got shape {block.shape[1:]}")
        g0, g1, f = block.shape[1:]
        if f != params.feature_dim:
            raise ValueError(
                f"features shape {block.shape[1:]} incompatible with feature_dim "
                f"{params.feature_dim}"
            )
        if g0 * g1 != params.n_patches:
            raise ValueError(f"grid has {g0 * g1} patches but params pool over {params.n_patches}")
        x = block.reshape(-1, params.feature_dim)
        h = _hidden(params, x)
        yield start, x, h, alpha @ h.reshape(len(block), n_patches, -1)


def image_forward(
    params: SatEncoderParams, grids: Sequence[np.ndarray]
) -> tuple[np.ndarray, ImageCache]:
    """Unit image embeddings (B, D) of B tiles' (G, G, F) grids, plus the cache.

    Layer 1 runs once per block of tiles and layer 2 once on the (B, H)
    pooled hidden rows; the cache keeps each block's features and hidden
    activations for image_backward.
    """
    alpha = _pool_weights(params)
    blocks, pooled = [], []
    for start, x, h, h_img in _image_blocks(params, grids, alpha):
        blocks.append((start, x, h))
        pooled.append(h_img)
    h_img = np.concatenate(pooled)
    image_embs, norms = _pooled_head(params, h_img)
    return image_embs, ImageCache(blocks=blocks, alpha=alpha, h_img=h_img,
                                  img_norms=norms, image_embs=image_embs)


def embed_images(params: SatEncoderParams, grids: Sequence[np.ndarray]) -> np.ndarray:
    """Unit image embeddings (B, D) of B tiles, computed as image_forward does.

    Keeps no cache, so memory stays at one block whatever the number of tiles.
    """
    alpha = _pool_weights(params)
    h_img = np.concatenate([blk[3] for blk in _image_blocks(params, grids, alpha)])
    return _pooled_head(params, h_img)[0]


def _normalize_backprop(unit_vec: np.ndarray, norm, d_unit: np.ndarray) -> np.ndarray:
    """d(loss)/d(raw) given d(loss)/d(raw/|raw|): project out the radial part."""
    radial = np.sum(unit_vec * d_unit, axis=-1, keepdims=True)
    return (d_unit - radial * unit_vec) / np.asarray(norm)[..., None]


def encoder_backward(
    params: SatEncoderParams,
    cache: ForwardCache,
    d_patch_embs: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients from upstream gradients on the unit patch embeddings.

    `d_patch_embs` is (P, D), aligned with the cache's patch rows. Pooling
    receives no gradient.
    """
    d_y = _normalize_backprop(cache.patch_embs, cache.y_norms,
                              np.asarray(d_patch_embs, dtype=np.float64))
    d_w2 = d_y.T @ cache.h
    d_b2 = d_y.sum(axis=0)
    d_h = d_y @ params.w2
    d_h_pre = d_h * (1.0 - cache.h * cache.h)
    d_w1 = d_h_pre.T @ cache.x
    d_b1 = d_h_pre.sum(axis=0)
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2,
            "pool_logits": np.zeros_like(params.pool_logits)}


def image_backward(
    params: SatEncoderParams, cache: ImageCache, d_image_embs: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients from upstream gradients (B, D) on the unit image embeddings.

    Mirrors image_forward: one (B, D)^T (B, H) product for layer 2, then per
    block one (H, rows) @ (rows, F) product for layer 1.
    """
    d_y_img = _normalize_backprop(cache.image_embs, cache.img_norms,
                                  np.asarray(d_image_embs, dtype=np.float64))
    d_h_img = d_y_img @ params.w2  # (B, H)
    alpha = cache.alpha
    n_patches = len(alpha)
    d_w1 = np.zeros_like(params.w1)
    d_b1 = np.zeros_like(params.b1)
    # d(loss)/d(alpha_p) up to a term shared by every patch (b2's), which the
    # softmax Jacobian below cancels.
    d_alpha = np.zeros(n_patches)
    for start, x, h in cache.blocks:
        h3 = h.reshape(-1, n_patches, h.shape[1])
        d_h = d_h_img[start : start + len(h3)]
        d_alpha += (h3 @ d_h[:, :, None]).sum(axis=0)[:, 0]
        # d_h_pre = alpha_p * d_h_b * (1 - h^2), built in place: the
        # broadcast (P, 1) x (B, 1, H) outer product is several times slower.
        d_h_pre = h * h
        np.subtract(1.0, d_h_pre, out=d_h_pre)
        d_h_pre3 = d_h_pre.reshape(h3.shape)
        d_h_pre3 *= d_h[:, None, :]
        d_h_pre3 *= alpha[:, None]
        d_w1 += d_h_pre.T @ x
        d_b1 += d_h_pre.sum(axis=0)
    return {
        "w1": d_w1,
        "b1": d_b1,
        "w2": d_y_img.T @ cache.h_img,
        "b2": d_y_img.sum(axis=0),
        "pool_logits": alpha * (d_alpha - alpha @ d_alpha),
    }
