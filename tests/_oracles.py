"""Independent oracles shared by the test suite.

These deliberately re-derive expected values by the most literal route
available (per-coordinate central differences, definition-level enumeration)
so they stay independent of the library code paths they check.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from dataclasses import dataclass
from pathlib import Path

from graft import corpus, geo
from graft.codec import Reader, Writer
from graft.corpus import GroundTable, ManifestError, PairedDataset, TileTable
from graft.encoder import forward_patch_rows
from graft.evaluation import DensityMap, class_hits, hit_accuracy
from graft.frozen import UNIT_NORM_TOL, FrozenEncoder
from graft.geo import GeoPoint
from graft.losses import pixel_loss_anchors


# ---- one geotag at a time ----------------------------------------------------
#
# The scalar geotag -> pixel -> patch mapping of one point against one tile
# centered on `center`. The library maps every pair of a dataset at once
# (`corpus.PairedDataset.pair_index`); tests check it against these.


class OutOfFootprintError(ValueError):
    """A geotag was mapped against a tile whose footprint does not contain it."""


@dataclass(frozen=True)
class PixelCoord:
    row: int
    col: int


@dataclass(frozen=True)
class PatchIndex:
    prow: int
    pcol: int


def meters_per_degree(lat: float) -> tuple[float, float]:
    """Local meters per degree of latitude and longitude at the given latitude."""
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    return geo.METERS_PER_DEGREE, geo.METERS_PER_DEGREE * math.cos(math.radians(lat))


def _offsets(origin: GeoPoint, p: GeoPoint, half_m: float):
    lon_cos = math.cos(math.radians(origin.lat))
    return geo.footprint_offsets(p.lat, p.lon, origin.lat, origin.lon, lon_cos, half_m)


def flat_earth_offset_m(origin: GeoPoint, p: GeoPoint) -> tuple[float, float]:
    """(north_m, east_m) displacement of `p` from `origin`, cos scale at origin."""
    return _offsets(origin, p, 0.0)[:2]


def flat_earth_distance_m(a: GeoPoint, b: GeoPoint) -> float:
    """Symmetric flat-earth distance; longitude scale at the midpoint latitude."""
    return math.sqrt(geo.separation_m2(a.lat, a.lon, b.lat, b.lon))


def tile_contains(tile, center: GeoPoint, p: GeoPoint) -> bool:
    """Strict containment: points exactly on the footprint boundary are outside."""
    return _offsets(center, p, tile.half_extent_m)[2]


def geotag_to_pixel(tile, center: GeoPoint, p: GeoPoint) -> PixelCoord:
    """Map a geotag inside the footprint of the tile at `center` to its raster pixel.

    Raises OutOfFootprintError for points on or outside the footprint boundary.
    """
    north, east, inside = _offsets(center, p, tile.half_extent_m)
    if not inside:
        raise OutOfFootprintError(
            f"point ({p.lat}, {p.lon}) outside tile at ({center.lat}, "
            f"{center.lon}): offset ({north:.1f} m N, {east:.1f} m E), "
            f"half extent {tile.half_extent_m:.1f} m"
        )
    res = tile.resolution_m_per_px
    row = math.floor(tile.size_px / 2 - north / res)
    col = math.floor(tile.size_px / 2 + east / res)
    return PixelCoord(int(row), int(col))


def pixel_to_geotag(tile, center: GeoPoint, px: PixelCoord) -> GeoPoint:
    """Geotag of a pixel's center; inverse of geotag_to_pixel up to half a pixel."""
    if not (0 <= px.row < tile.size_px and 0 <= px.col < tile.size_px):
        raise ValueError(f"pixel {px} out of bounds for size_px {tile.size_px}")
    res = tile.resolution_m_per_px
    north = (tile.size_px / 2 - (px.row + 0.5)) * res
    east = ((px.col + 0.5) - tile.size_px / 2) * res
    lat = center.lat + north / geo.METERS_PER_DEGREE
    lon = center.lon + east / (geo.METERS_PER_DEGREE * math.cos(math.radians(center.lat)))
    return GeoPoint(lat, lon)


def pixel_to_patch(px: PixelCoord, patch_px: int) -> PatchIndex:
    """Index of the non-overlapping patch containing the pixel."""
    if patch_px <= 0:
        raise ValueError("patch_px must be positive")
    if px.row < 0 or px.col < 0:
        raise ValueError(f"pixel {px} has negative coordinates")
    return PatchIndex(px.row // patch_px, px.col // patch_px)


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
# the logit matrix, with the positives as one (N_i, D) array per tile and each
# group mean a per-group `.mean(axis=0)`. The library computes the same
# quantities from the batch's CSR arrays through one in-place kernel; these
# oracles check it.


def pack_groups(groups) -> tuple[np.ndarray, np.ndarray]:
    """A list of (N_i, D) arrays as the CSR pair (grounds (M, D), sizes (N_B,))."""
    return np.concatenate(groups, axis=0), np.array([len(g) for g in groups])


def split_groups(grounds: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """The CSR pair (grounds, sizes) as a list of (N_i, D) arrays."""
    return np.split(grounds, np.cumsum(sizes)[:-1])


def logsumexp_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log-sum-exp, softmax), stable under large logits."""
    m = np.max(x, axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))
    return lse[:, 0], np.exp(x - lse)


def _flat_groups(groups):
    grounds, sizes = pack_groups(groups)
    return grounds, np.repeat(np.arange(len(groups)), sizes), sizes


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


def l2_oracle(sat_embs, groups):
    n_b = sat_embs.shape[0]
    value = 0.0
    grad = np.zeros_like(sat_embs)
    for i, g in enumerate(groups):
        diffs = sat_embs[i] - g  # (N_i, D)
        value += float(np.mean(np.sum(diffs * diffs, axis=1)))
        grad[i] = 2.0 * (sat_embs[i] - g.mean(axis=0)) / n_b
    return value / n_b, grad


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
    grounds: np.ndarray,
    sizes: np.ndarray,
    tau: float,
    patch_px: int,
) -> tuple[float, list[np.ndarray]]:
    """Pixel-level multi-positive loss over patch-embedding grids.

    Each ground image's pixel selects the patch that contains it; that patch
    embedding is the anchor for the pair. Gradients are returned as one grid
    per tile and are exactly zero on patches containing no ground image.
    """
    if not (len(patch_grids) == len(pixels) == len(sizes)):
        raise ValueError("patch_grids, pixels and sizes must align")
    anchors = []
    locations: list[tuple[int, int, int]] = []
    for i, (grid, tile_pixels, size) in enumerate(zip(patch_grids, pixels, sizes)):
        grid = np.asarray(grid, dtype=np.float64)
        if len(tile_pixels) != size:
            raise ValueError(f"tile {i}: {len(tile_pixels)} pixels for {size} grounds")
        for px in tile_pixels:
            patch = pixel_to_patch(px, patch_px)
            if patch.prow >= grid.shape[0] or patch.pcol >= grid.shape[1]:
                raise ValueError(
                    f"pixel {px} maps to patch {patch} outside grid {grid.shape[:2]}"
                )
            anchors.append(grid[patch.prow, patch.pcol])
            locations.append((i, patch.prow, patch.pcol))
    value, danchors = pixel_loss_anchors(np.asarray(anchors), grounds, sizes, tau)
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
# The patch-collapse check as first written runs layer 2 on every patch; the
# library screens the patches by a projection, and tests check it against that.


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


def forward_tile(params, patch_features):
    """One tile's (G, G, D) unit patch embeddings, unit image embedding and the
    patch-level cache that `encoder_backward` takes; the tile is pooled on its
    own, hidden rows first."""
    grid = np.asarray(patch_features, dtype=np.float64)
    g0, g1, f = grid.shape
    patch_embs, cache = forward_patch_rows(params, grid.reshape(g0 * g1, f))
    alpha = np.exp(params.pool_logits - np.max(params.pool_logits))
    y_img = ((alpha / alpha.sum()) @ cache.h) @ params.w2.T + params.b2
    return patch_embs.reshape(g0, g1, -1), y_img / np.linalg.norm(y_img), cache


def encoder_forward(params, patch_features):
    """One tile's (G, G, D) unit patch embeddings and unit image embedding: the
    per-tile reference for `embed_images` and `evaluation.segment_tiles`."""
    return forward_tile(params, patch_features)[:2]


# ---- the feature field one tile and one point at a time ---------------------
#
# Class lookup, class grids and feature materialization as first written, per
# tile, and the density map as one materialization and one encoder forward per
# cell. The library computes blocks of tiles at once; tests check it against
# these, and against the first blocked versions: an argmin over every seed's
# distance and one-hots set by `put_along_axis`, each tile's noise added.


def class_at(fld, p) -> int:
    return int(fld.class_at_many(np.array([p.lat]), np.array([p.lon]))[0])


def class_centroids(world) -> np.ndarray:
    """(K, D) exact class centroid directions (standard basis vectors)."""
    k = world.config.n_classes
    eye = np.zeros((k, world.config.embed_dim))
    eye[np.arange(k), np.arange(k)] = 1.0
    return eye


def class_grid_per_tile(fld, tile, center) -> np.ndarray:
    g = tile.grid_px
    res = tile.resolution_m_per_px
    centers_px = (np.arange(g) + 0.5) * tile.patch_px
    north = (tile.size_px / 2 - centers_px) * res
    east = (centers_px - tile.size_px / 2) * res
    lat = center.lat + north / geo.METERS_PER_DEGREE
    lon = center.lon + east / (geo.METERS_PER_DEGREE * math.cos(math.radians(center.lat)))
    return fld.class_at_many(np.broadcast_to(lat[:, None], (g, g)),
                             np.broadcast_to(lon[None, :], (g, g)))


def class_grids_broadcast(fld, spec, lats, lons) -> np.ndarray:
    """(N, G, G) classes of N tiles, each block's patch-center coordinates
    broadcast to (n, G, G) and passed through `class_at_many`."""
    g = spec.grid_px
    lat0, lon0, lon_scale = np.array(
        [(a, b, geo.METERS_PER_DEGREE * math.cos(math.radians(a))) for a, b in zip(lats, lons)]
    ).T[..., None]
    north = (spec.size_px / 2 - (np.arange(g) + 0.5) * spec.patch_px) * spec.resolution_m_per_px
    lat = lat0 + north / geo.METERS_PER_DEGREE
    lon = lon0 - north / lon_scale
    shape = (len(lats), g, g)
    return fld.class_at_many(np.broadcast_to(lat[:, :, None], shape),
                             np.broadcast_to(lon[:, None, :], shape))


def class_grids_argmin(fld, spec, lat, lon) -> np.ndarray:
    """`corpus.class_grids` as first blocked: the (n, G, G, K) squared seed
    distances of each block of `corpus.FIELD_BLOCK_TILES` tiles, then `argmin`
    over K, the blocks joined by `np.concatenate` (which fails on zero tiles)."""
    lat0 = np.asarray(lat, dtype=np.float64)[:, None]
    lon0 = np.asarray(lon, dtype=np.float64)[:, None]
    lon_scale = np.array([geo.METERS_PER_DEGREE * math.cos(math.radians(v))
                          for v in lat0[:, 0].tolist()]).reshape(-1, 1)
    north = (spec.size_px / 2 - (np.arange(spec.grid_px) + 0.5) * spec.patch_px) \
        * spec.resolution_m_per_px
    x, y = fld._project(lat0 + north / geo.METERS_PER_DEGREE, lon0 - north / lon_scale)
    sx, sy = fld._project(fld.seeds_lat, fld.seeds_lon)
    dx2, dy2 = (x[..., None] - sx) ** 2, (y[..., None] - sy) ** 2  # (N, G, K) columns, rows
    step = corpus.FIELD_BLOCK_TILES
    blocks = (slice(i, i + step) for i in range(0, len(lat0), step))
    return np.concatenate([np.argmin(dx2[b, None] + dy2[b, :, None], axis=-1) for b in blocks])


def materialize_many_put(fld, spec, lat, lon, timestamps) -> np.ndarray:
    """`corpus.materialize_many` as first blocked: a zero block per
    `corpus.FIELD_BLOCK_TILES` tiles, the one-hots set by `put_along_axis`,
    then each tile's `sigma * z` added from its own noise stream."""
    lat, lon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
    g = spec.grid_px
    features = np.empty((len(lat), g, g, fld.feature_dim), dtype=np.float32)
    for start in range(0, len(lat), corpus.FIELD_BLOCK_TILES):
        rows = slice(start, start + corpus.FIELD_BLOCK_TILES)
        labels = class_grids_argmin(fld, spec, lat[rows], lon[rows])
        block = np.zeros(labels.shape + (fld.feature_dim,))
        np.put_along_axis(block, labels[..., None], 1.0, axis=-1)
        if fld.noise_sigma > 0:
            centers = zip(lat[rows].tolist(), lon[rows].tolist(), timestamps[rows])
            for i, (c_lat, c_lon, ts) in enumerate(centers):
                key = [fld.noise_key, int(ts), int(round((c_lat + 90.0) * 1e7)),
                       int(round((c_lon + 180.0) * 1e7))]
                rng = np.random.default_rng(np.random.SeedSequence(key))
                block[i] += fld.noise_sigma * rng.standard_normal(block.shape[1:])
        features[rows] = block
    return features


def majority_class_per_tile(grids) -> np.ndarray:
    """Each tile's most frequent class, the lowest one on a tie, one bincount per tile."""
    return np.array([int(np.bincount(grid.ravel()).argmax()) for grid in grids])


def materialize_per_tile(fld, tile, center, snapshot_ts: int) -> np.ndarray:
    g = tile.grid_px
    labels = class_grid_per_tile(fld, tile, center)
    features = np.zeros((g, g, fld.feature_dim), dtype=np.float64)
    gi, gj = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    features[gi, gj, labels] = 1.0
    if fld.noise_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [
                    fld.noise_key,
                    int(snapshot_ts),
                    int(round((center.lat + 90.0) * 1e7)),
                    int(round((center.lon + 180.0) * 1e7)),
                ]
            )
        )
        features += fld.noise_sigma * rng.standard_normal(features.shape)
    return features.astype(np.float32)


def density_scores_per_cell(fld, params, query_emb, spec, cell_px: int, snapshot_ts: int):
    """(rows, cols) cosine scores of the query over the map's cells, cell by cell."""
    lat_min, lat_max, lon_min, lon_max = fld.bounds
    cell_m = cell_px * spec.resolution_m_per_px
    dlat = cell_m / geo.METERS_PER_DEGREE
    dlon = cell_m / (geo.METERS_PER_DEGREE * math.cos(math.radians(fld.origin.lat)))
    lat_centers = np.arange(lat_max - dlat / 2, lat_min, -dlat)
    lon_centers = np.arange(lon_min + dlon / 2, lon_max, dlon)
    scores = np.zeros((len(lat_centers), len(lon_centers)))
    for r, lat in enumerate(lat_centers):
        for c, lon in enumerate(lon_centers):
            cell = geo.GeoPoint(lat, lon)
            _, img = encoder_forward(params, materialize_per_tile(fld, spec, cell, snapshot_ts))
            scores[r, c] = float(img @ query_emb)
    return scores


# ---- build report -------------------------------------------------------------


def min_center_separation_per_tile(lats, lons) -> float:
    """Smallest distance between two tile centers, each tile against every later one."""
    best = math.inf
    for i in range(len(lats) - 1):
        dn = (lats[i] - lats[i + 1 :]) * geo.METERS_PER_DEGREE
        de = (
            (lons[i] - lons[i + 1 :])
            * geo.METERS_PER_DEGREE
            * np.cos(np.radians((lats[i] + lats[i + 1 :]) / 2))
        )
        d = np.sqrt(dn * dn + de * de)
        best = min(best, float(d.min()))
    return best


# ---- pairing ------------------------------------------------------------------


def sample_tiles_scan(points, spec, min_sep_px):
    """Greedy tile sampling as first written: each point against every spawned
    center, then each tile against every point. Returns the center point
    indices and the assignment."""
    min_sep_m = min_sep_px * spec.resolution_m_per_px
    lats = np.array([p.lat for p in points], dtype=np.float64)
    lons = np.array([p.lon for p in points], dtype=np.float64)
    center_lat = np.empty(len(points))
    center_lon = np.empty(len(points))
    n_tiles = 0
    centers = []
    for i in range(len(points)):
        if n_tiles > 0 and min_sep_m > 0:
            clat = center_lat[:n_tiles]
            clon = center_lon[:n_tiles]
            dn = (lats[i] - clat) * geo.METERS_PER_DEGREE
            de = (
                (lons[i] - clon)
                * geo.METERS_PER_DEGREE
                * np.cos(np.radians((lats[i] + clat) / 2))
            )
            if bool(np.any(dn * dn + de * de < min_sep_m * min_sep_m)):
                continue
        center_lat[n_tiles] = lats[i]
        center_lon[n_tiles] = lons[i]
        n_tiles += 1
        centers.append(i)
    half = spec.half_extent_m
    assignment = []
    for c in centers:
        dn = (lats - points[c].lat) * geo.METERS_PER_DEGREE
        de = (
            (lons - points[c].lon)
            * geo.METERS_PER_DEGREE
            * math.cos(math.radians(points[c].lat))
        )
        inside = (np.abs(dn) < half) & (np.abs(de) < half)
        assignment.append(np.nonzero(inside)[0].tolist())
    return centers, assignment


def cap_subsample_lists(assignment, cap: int = 25, seed: int = 0) -> list[list[int]]:
    """Uniformly subsample each tile's point list down to at most `cap` entries.

    Tiles at or under the cap pass through unchanged. Retained entries keep
    their original relative order; the draw is deterministic for a fixed seed.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rng = np.random.default_rng(seed)
    capped: list[list[int]] = []
    for members in assignment:
        if len(members) <= cap:
            capped.append(list(members))
        else:
            keep = np.sort(rng.choice(len(members), size=cap, replace=False))
            capped.append([members[k] for k in keep])
    return capped


def pairs_of(lists) -> tuple[np.ndarray, np.ndarray]:
    """The CSR `offsets` and `ground` of per-tile index lists."""
    counts = np.array([len(a) for a in lists], dtype=np.int64)
    return np.append(0, np.cumsum(counts)), np.array([m for a in lists for m in a], np.int64)


def pair_lists(offsets, members) -> list[list[int]]:
    """The per-tile index lists of a CSR pair table."""
    return [members[a:b].tolist() for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def with_tile_pairs(ds: PairedDataset, tile: int, ground) -> PairedDataset:
    """`ds` with tile `tile`'s grounds replaced by `ground`, spliced into its CSR arrays."""
    a, b = ds.offsets[tile], ds.offsets[tile + 1]
    shift = (np.arange(len(ds.offsets)) > tile) * (len(ground) - (b - a))
    return dataclasses.replace(ds, offsets=ds.offsets + shift, ground=np.concatenate(
        [ds.ground[:a], np.asarray(ground, dtype=np.int64), ds.ground[b:]]))


def take_tiles(tiles: TileTable, indices) -> TileTable:
    """The tiles at `indices`, in that order, their features in memory."""
    idx = np.asarray(indices, dtype=np.intp)
    return TileTable(tiles.spec, [tiles.ids[i] for i in idx.tolist()], tiles.lat[idx],
                     tiles.lon[idx], tiles.timestamp[idx], tiles.features[idx])


def subset_tiles(ds: PairedDataset, indices) -> PairedDataset:
    """A dataset restricted to the given tile indices (ground list is shared)."""
    tiles = take_tiles(ds.tiles, indices)
    sizes, rows = corpus._segments(ds.offsets, np.asarray(indices, dtype=np.intp))
    provenance = dict(ds.provenance)
    provenance["subset_of"] = provenance.get("n_tiles", len(ds.tiles))
    provenance["n_tiles"] = len(tiles)
    provenance["n_pairs"] = len(rows)
    return PairedDataset(tiles, ds.grounds, np.append(0, np.cumsum(sizes)), ds.ground[rows],
                         provenance)


def per_class_accuracy(pred: np.ndarray, gt: np.ndarray) -> tuple[dict[int, float], float]:
    """Accuracy per class present in the ground truth, and their mean; classes
    absent from the ground truth do not appear at all. Classes are indices >= 0."""
    return hit_accuracy(*class_hits(pred, gt))


def select_snapshot_scan(candidates, target: int) -> int:
    """Index of the timestamp closest to target; ties go to the earlier snapshot."""
    return min(range(len(candidates)),
               key=lambda i: (abs(candidates[i] - target), candidates[i], i))


# ---- density grids and logit upsampling ------------------------------------
#
# The reader of the `.grid` files `graft map` writes, and the bicubic logit
# upsampling that segmentation at pixel resolution would use. The CLI scores
# segmentation at patch resolution and never reads a grid back; tests use
# these to check its outputs and keep the upsampling's properties on record.


def load_density_grid(path: str | Path) -> DensityMap:
    raw = Path(path).read_bytes()
    nl = raw.index(b"\n")
    cols_s, rows_s, lat_s, lon_s, cell_s = raw[:nl].decode("ascii").split()
    cols, rows = int(cols_s), int(rows_s)
    scores = (
        np.frombuffer(raw, dtype="<f4", count=rows * cols, offset=nl + 1)
        .reshape(rows, cols)
        .astype(np.float64)
    )
    return DensityMap(scores=scores, origin=GeoPoint(float(lat_s), float(lon_s)),
                      cell_m=float(cell_s))


def _catmull_rom_matrix(n_in: int, factor: int) -> np.ndarray:
    """(n_in*factor, n_in) interpolation matrix; output o samples source o/factor."""
    n_out = n_in * factor
    mat = np.zeros((n_out, n_in))
    for o in range(n_out):
        src = o / factor
        base = math.floor(src)
        t = src - base
        # Keys cubic with a = -0.5 (Catmull-Rom); exact at t == 0.
        weights = (
            -0.5 * t * (t - 1.0) ** 2,
            1.5 * t**3 - 2.5 * t**2 + 1.0,
            -1.5 * t**3 + 2.0 * t**2 + 0.5 * t,
            0.5 * t**2 * (t - 1.0),
        )
        for j, w in zip(range(base - 1, base + 3), weights):
            mat[o, min(max(j, 0), n_in - 1)] += w
    return mat


def upsample_logits(logits: np.ndarray, factor: int) -> np.ndarray:
    """Bicubic (Catmull-Rom, edge-clamped) upsampling of per-class logit grids.

    Output position (i*factor, j*factor) reproduces input (i, j) exactly, so
    source grid values survive to the fine grid. factor 1 is the identity.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError("factor must be a positive integer")
    logits = np.asarray(logits, dtype=np.float64)
    if factor == 1:
        return logits.copy()
    squeeze = logits.ndim == 2
    if squeeze:
        logits = logits[..., None]
    h, w, k = logits.shape
    rows = _catmull_rom_matrix(h, factor)
    cols = _catmull_rom_matrix(w, factor)
    out = np.tensordot(rows, logits, axes=(1, 0))  # (H_out, W, K)
    out = np.tensordot(cols, out, axes=(1, 1)).transpose(1, 0, 2)  # (H_out, W_out, K)
    return out[..., 0] if squeeze else out


# ---- grounds and embedding fixtures one record at a time --------------------
#
# The ground manifest parser, the embedding fixture writer and reader, and the
# dataset container's writer and its ground and assignment readers, as first
# written: one line, entry or record at a time through `codec.Reader` and
# `codec.Writer`, one `GeoPoint` per ground. The library parses, reads and
# writes whole columns; property tests check it against these.


def ground_table(rows) -> GroundTable:
    """Grounds from (id, lat, lon, timestamp, ref) rows; lon wrapped as by `GeoPoint`."""
    ids, lat, lon, ts, refs = map(list, zip(*rows)) if rows else ([],) * 5
    return GroundTable(ids, np.array(lat, dtype=np.float64),
                       geo.wrap_lon(np.array(lon, dtype=np.float64)),
                       np.array(ts, dtype=np.int64), refs)


def section_at(raw: bytes, k: int) -> int:
    """The offset of dataset container section k's first byte (its count, for 0-2)."""
    at = 6  # magic and version
    for _ in range(k):
        at += 8 + struct.unpack_from("<Q", raw, at)[0]
    return at + 8


def ground_rows(grounds: GroundTable) -> list[tuple]:
    """(id, lat, lon, timestamp, ref) of each ground, as Python values."""
    return list(zip(grounds.ids, grounds.lat.tolist(), grounds.lon.tolist(),
                    grounds.timestamp.tolist(), grounds.refs))


def _grounds_of_points(rows) -> GroundTable:
    """Grounds from (id, GeoPoint, timestamp, ref) rows, the points already wrapped."""
    ids, points, ts, refs = map(list, zip(*rows)) if rows else ([],) * 4
    return GroundTable(ids, np.array([p.lat for p in points], dtype=np.float64),
                       np.array([p.lon for p in points], dtype=np.float64),
                       np.array(ts, dtype=np.int64), refs)


def manifest_lines_scan(path, n_fields: int, ts_field: int):
    """(line number, fields) of each manifest line that is neither blank nor a comment."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ManifestError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != n_fields:
            raise ManifestError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
        try:
            parts[ts_field] = int(parts[ts_field])
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= parts[ts_field] <= 2**62:
            raise ManifestError(f"{path}:{lineno}: timestamp {parts[ts_field]} outside [0, 2**62]")
        yield lineno, parts


def parse_ground_manifest_scan(path) -> GroundTable:
    rows = []
    seen: set[str] = set()
    for lineno, (rid, lat_s, lon_s, ts, ref) in manifest_lines_scan(path, 5, 3):
        if len(rid.encode()) > 65535:
            raise ManifestError(f"{path}:{lineno}: ground id of {len(rid.encode())} UTF-8 bytes; "
                                f"the container holds at most 65535")
        if rid in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate ground id {rid!r}")
        seen.add(rid)
        try:
            point = GeoPoint(float(lat_s), float(lon_s))
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from exc
        rows.append((rid, point, ts, ref))
    return _grounds_of_points(rows)


def save_embeddings_scan(path, table: dict[str, np.ndarray]) -> None:
    if not table:
        raise ValueError("refusing to write an empty embedding fixture")
    dims = {v.shape[-1] for v in table.values()}
    if len(dims) != 1:
        raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
    w = Writer()
    w.pack("<II", len(table), dims.pop())
    for key in sorted(table):
        w.string(key)
        w.array(table[key], "<f4")
    w.save(path)


def load_embeddings_scan(path) -> FrozenEncoder:
    r = Reader(Path(path).read_bytes(), f"embedding fixture {path}")
    count, dim = r.unpack("<II")
    if count == 0:
        raise r.fail("empty table", 0)
    starts, keys, rows = [], [], []
    for _ in range(count):
        starts.append(r.off)
        keys.append(r.string())
        rows.append(r.array("<f4", (dim,)))
    r.done()
    first: dict[str, int] = {}
    for i, key in enumerate(keys):
        if first.setdefault(key, i) != i:
            raise r.fail(f"duplicate key {key!r}", starts[i])
    vecs = np.array(rows, dtype=np.float64).reshape(count, dim)
    norms = np.sqrt((vecs[:, None, :] @ vecs[:, :, None])[:, 0, 0])
    bad = ~np.isfinite(norms) | (norms < UNIT_NORM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise r.fail(f"entry {keys[i]!r} has norm {norms[i]:.3e}", starts[i])
    return FrozenEncoder(keys=keys, vectors=vecs / norms[:, None])


# The container layout as README states it (version 1): magic `GRFT`, u16 version, and
# after a tile's u16 id length and UTF-8 id the header lat, lon, m/px (f64),
# size and patch (u32), timestamp (i64), a u32 written as 3, then G, G, F (u32).
CONTAINER_MAGIC, CONTAINER_VERSION = b"GRFT", 1
TILE_HEADER = "<dddIIqIIII"


def save_dataset_scan(ds, path) -> None:
    t, spec = ds.tiles, ds.tiles.spec
    tiles = Writer()
    tiles.pack("<I", len(t))
    for tid, lat, lon, ts, grid in zip(t.ids, t.lat.tolist(), t.lon.tolist(),
                                       t.timestamp.tolist(), t.features):
        tiles.string(tid)
        tiles.pack(TILE_HEADER, lat, lon, spec.resolution_m_per_px, spec.size_px,
                   spec.patch_px, ts, 3, *grid.shape)
        tiles.array(grid, "<f4")
    grounds = Writer()
    grounds.pack("<I", len(ds.grounds))
    for gid, lat, lon, ts, ref in ground_rows(ds.grounds):
        grounds.string(gid)
        grounds.pack("<ddq", lat, lon, ts)
        grounds.string(ref)
    assigns = Writer()
    lists = pair_lists(ds.offsets, ds.ground)
    assigns.pack("<I", len(lists))
    for members in lists:
        assigns.pack(f"<I{len(members)}I", len(members), *members)
    prov = Writer()
    prov.json(ds.provenance)
    out = Writer()
    out.header(CONTAINER_MAGIC, CONTAINER_VERSION)
    for section in (tiles, grounds, assigns, prov):
        out.section(section)
    out.save(path)


def load_dataset_scan(path) -> PairedDataset:
    """A container read with the library's tile reader and the per-record
    ground and assignment readers."""
    tiles_r, grounds_r, assigns_r, prov_r = corpus._container_sections(path)
    tiles = corpus._read_tiles(tiles_r)
    rows = []
    for _ in range(grounds_r.unpack("<I")[0]):
        start = grounds_r.off
        gid = grounds_r.string()
        lat, lon, ts = grounds_r.unpack("<ddq")
        ref = grounds_r.string()
        try:
            rows.append((gid, GeoPoint(lat, lon), ts, ref))
        except ValueError as exc:
            raise grounds_r.fail(f"invalid ground record ({exc})", start) from exc
    grounds_r.done()
    start = assigns_r.off
    assignments: list[list[int]] = []
    for _ in range(assigns_r.unpack("<I")[0]):
        (n,) = assigns_r.unpack("<I")
        assignments.append(list(assigns_r.unpack(f"<{n}I")))
    assigns_r.done()
    if len(assignments) != len(tiles):
        raise assigns_r.fail(f"{len(assignments)} assignment lists for {len(tiles)} tiles", start)
    return PairedDataset(tiles, _grounds_of_points(rows), *pairs_of(assignments), prov_r.json())
