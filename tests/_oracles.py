"""Independent oracles shared by the test suite.

These deliberately re-derive expected values by the most literal route
available (per-coordinate central differences, definition-level enumeration)
so they stay independent of the library code paths they check.
"""

from __future__ import annotations

import numpy as np

from graft.geo import PixelCoord, pixel_to_patch
from graft.losses import GroundGroup, pixel_loss_anchors


def rand_unit(rng: np.random.Generator, shape) -> np.ndarray:
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def fd_gradient_inplace(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Finite differences for a function that reads `x` by reference."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def ap_at_k_bruteforce(flags, k: int) -> float:
    """Literal enumeration of truncated average precision."""
    total_relevant = sum(flags)
    if total_relevant == 0:
        return 0.0
    hits = 0
    acc = 0.0
    for rank, flag in enumerate(flags[:k], start=1):
        if flag:
            hits += 1
            acc += hits / rank
    return acc / min(k, total_relevant)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


# ---- contrastive losses, the literal two-exp formulation -------------------
#
# These are the loss definitions as first written: a log-sum-exp followed by
# a second exp for the softmax, a dense membership mask and the diagonal of
# the logit matrix. The library computes the same quantities through one
# in-place kernel; these oracles check it.


def logsumexp_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log-sum-exp, softmax), stable under large logits."""
    m = np.max(x, axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))
    return lse[:, 0], np.exp(x - lse)


def _flat_groups(groups):
    sizes = np.array([len(g) for g in groups])
    owner = np.repeat(np.arange(len(groups)), sizes)
    return np.concatenate(groups, axis=0), owner, sizes


def image_loss_oracle(sat_embs, groups, tau):
    """`groups` is a list of (N_i, D) arrays; returns (value, grad wrt sat_embs)."""
    grounds, owner, sizes = _flat_groups(groups)
    n_b = sat_embs.shape[0]
    logits = sat_embs @ grounds.T / tau
    lse, p = logsumexp_rows(logits)
    own = owner == np.arange(n_b)[:, None]
    per_pair_nll = lse[:, None] - logits
    value = float(np.sum(np.where(own, per_pair_nll, 0.0) / sizes[:, None]) / n_b)
    means = np.stack([g.mean(axis=0) for g in groups])
    return value, (p @ grounds - means) / (n_b * tau)


def sum_prob_oracle(sat_embs, groups, tau):
    grounds, owner, sizes = _flat_groups(groups)
    n_b = sat_embs.shape[0]
    logits = sat_embs @ grounds.T / tau
    lse, p = logsumexp_rows(logits)
    own_lse, own_softmax = logsumexp_rows(
        np.where(owner == np.arange(n_b)[:, None], logits, -np.inf)
    )
    value = float(np.mean(lse - own_lse + np.log(sizes)))
    return value, (p - own_softmax) @ grounds / (n_b * tau)


def avg_rep_oracle(sat_embs, groups, tau):
    means = np.stack([g.mean(axis=0) for g in groups])
    z_hat = means / np.linalg.norm(means, axis=1, keepdims=True)
    n_b = sat_embs.shape[0]
    logits = sat_embs @ z_hat.T / tau
    lse, q = logsumexp_rows(logits)
    value = float(np.mean(lse - np.diagonal(logits)))
    return value, (q @ z_hat - z_hat) / (n_b * tau)


def pixel_loss_anchors_oracle(anchors, groups, tau):
    grounds, owner, sizes = _flat_groups(groups)
    logits = anchors @ grounds.T / tau
    lse, p = logsumexp_rows(logits)
    weight = 1.0 / (len(groups) * sizes[owner])
    value = float(np.sum(weight * (lse - np.diagonal(logits))))
    return value, weight[:, None] * (p @ grounds - grounds) / tau


# ---- grid-level pixel loss --------------------------------------------------
#
# The pixel loss as first written: one anchor gathered per (tile, ground) pair
# from per-tile patch grids, and the anchor gradients scattered back onto those
# grids, pair by pair, around the library's `pixel_loss_anchors`. Tests check
# the anchor-level interface against it.


def pixel_loss(
    patch_grids: list[np.ndarray],
    pixels: list[list[PixelCoord]],
    ground_groups: list[GroundGroup],
    tau: float,
    patch_px: int,
    validate: bool = True,
) -> tuple[float, list[np.ndarray]]:
    """Pixel-level multi-positive loss over patch-embedding grids.

    Each ground image's pixel selects the patch that contains it; that patch
    embedding is the anchor for the pair. Gradients are returned as one grid
    per tile and are exactly zero on patches containing no ground image.
    """
    if not (len(patch_grids) == len(pixels) == len(ground_groups)):
        raise ValueError("patch_grids, pixels and ground_groups must align")
    anchors = []
    locations: list[tuple[int, int, int]] = []
    for i, (grid, tile_pixels, group) in enumerate(zip(patch_grids, pixels, ground_groups)):
        grid = np.asarray(grid, dtype=np.float64)
        if len(tile_pixels) != group.size:
            raise ValueError(f"tile {i}: {len(tile_pixels)} pixels for {group.size} grounds")
        for px in tile_pixels:
            patch = pixel_to_patch(px, patch_px)
            if patch.prow >= grid.shape[0] or patch.pcol >= grid.shape[1]:
                raise ValueError(
                    f"pixel {px} maps to patch {patch} outside grid {grid.shape[:2]}"
                )
            anchors.append(grid[patch.prow, patch.pcol])
            locations.append((i, patch.prow, patch.pcol))
    value, danchors = pixel_loss_anchors(
        np.asarray(anchors), ground_groups, tau, validate=validate
    )
    grads = [np.zeros_like(np.asarray(grid, dtype=np.float64)) for grid in patch_grids]
    for row, (i, pr, pc) in enumerate(locations):
        grads[i][pr, pc] += danchors[row]
    return value, grads


# ---- per-tile image-level pass ----------------------------------------------
#
# The image-level train step as first written: one full forward per tile that
# pools the pre-normalization patch *outputs*, the loss on the stacked image
# embeddings, then one backward per tile through the pooled normalization and
# the softmax pooling weights, summed tile by tile. The library pools hidden
# rows instead and runs blocks of tiles at once; tests check it against this.


def image_level_per_tile(params, grids, loss_fn):
    """`loss_fn(sat_embs)` gives (value, d_sat); returns (value, parameter grads)."""
    alpha = np.exp(params.pool_logits - np.max(params.pool_logits))
    alpha /= alpha.sum()
    passes, sat_embs = [], []
    for grid in grids:
        x = np.asarray(grid, dtype=np.float64).reshape(-1, params.feature_dim)
        h = np.tanh(x @ params.w1.T + params.b1)
        y = h @ params.w2.T + params.b2
        y_img = alpha @ y
        norm = float(np.linalg.norm(y_img))
        passes.append((x, h, y, norm))
        sat_embs.append(y_img / norm)
    sat_embs = np.array(sat_embs)
    value, d_sat = loss_fn(sat_embs)

    grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    for (x, h, y, norm), emb, d_emb in zip(passes, sat_embs, d_sat):
        d_y_img = (d_emb - (emb @ d_emb) * emb) / norm
        d_y = alpha[:, None] * d_y_img
        d_alpha = y @ d_y_img
        grads["pool_logits"] += alpha * (d_alpha - alpha @ d_alpha)
        grads["w2"] += d_y.T @ h
        grads["b2"] += d_y.sum(axis=0)
        d_h_pre = (d_y @ params.w2) * (1.0 - h * h)
        grads["w1"] += d_h_pre.T @ x
        grads["b1"] += d_h_pre.sum(axis=0)
    return value, grads
