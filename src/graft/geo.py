"""Flat-earth tile geometry: footprint offsets and minimum-separation tile sampling.

Tiles are small (at most a few km across), so geodesy is a local equirectangular
model: one degree of latitude is a fixed 111320 m and one degree of longitude is
111320 * cos(lat), evaluated at the tile center. Rows grow southward (north is
up in the raster). Tiles never span the antimeridian; longitude differences are
plain subtraction after normalization into [-180, 180).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METERS_PER_DEGREE = 111_320.0


def wrap_lon(lon):
    """Longitude normalized into [-180, 180), for floats and arrays with the same
    bits; a longitude already in range is returned bit for bit.

    Both steps are exact, so the result is the exact wrap of any finite
    longitude: fmod always is, and the one step of 360 falls under Sterbenz's
    lemma, as the remainder's magnitude is then within [180, 360).
    """
    rem = np.fmod(lon, 360.0)  # in (-360, 360), with the sign of lon
    wrapped = np.where(rem >= 180.0, rem - 360.0, np.where(rem < -180.0, rem + 360.0, rem))
    return wrapped if isinstance(lon, np.ndarray) else float(wrapped)


def lon_cos(lat: np.ndarray) -> np.ndarray:
    """The scalar `math.cos` of each latitude, in degrees: the longitude scale of
    a tile centered there, the same bits whether its tile is taken alone or not."""
    return np.array([math.cos(math.radians(v)) for v in np.asarray(lat).tolist()])


def on_globe(lat, lon):
    """Where a geotag is on the globe, for floats and arrays alike: its latitude
    within [-90, 90] and its longitude finite (any finite one wraps)."""
    return (-90.0 <= lat) & (lat <= 90.0) & np.isfinite(lon)


def off_globe_reason(lat, lon) -> str:
    """Why a geotag that is not `on_globe` is off it."""
    lat, lon = float(lat), float(lon)
    if not on_globe(lat, 0.0):
        return f"latitude {lat} outside [-90, 90]"
    return f"longitude {lon} is not finite"


@dataclass(frozen=True)
class GeoPoint:
    """Geodetic coordinate; lat in [-90, 90], lon normalized into [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self):
        lat = float(self.lat)
        lon = float(self.lon)
        if not on_globe(lat, lon):
            raise ValueError(off_globe_reason(lat, lon))
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", wrap_lon(lon))


@dataclass(frozen=True)
class TileSpec:
    """The geometry of a square satellite tile raster; tiles are centered on geotags.

    Defaults give a 224 px tile of 16 px patches; at 1 m/px each patch covers
    16 m of ground, at 10 m/px it covers 160 m.
    """

    resolution_m_per_px: float = 1.0
    size_px: int = 224
    patch_px: int = 16

    def __post_init__(self):
        object.__setattr__(self, "resolution_m_per_px", float(self.resolution_m_per_px))
        object.__setattr__(self, "size_px", int(self.size_px))
        object.__setattr__(self, "patch_px", int(self.patch_px))
        if not 0 < self.resolution_m_per_px < math.inf:
            raise ValueError("resolution_m_per_px must be positive and finite")
        if self.size_px <= 0 or self.patch_px <= 0:
            raise ValueError("size_px and patch_px must be positive")
        if self.size_px % self.patch_px != 0:
            raise ValueError(
                f"size_px {self.size_px} not divisible by patch_px {self.patch_px}"
            )

    @property
    def grid_px(self) -> int:
        """Patches per side."""
        return self.size_px // self.patch_px

    @property
    def half_extent_m(self) -> float:
        return self.size_px * self.resolution_m_per_px / 2.0


def footprint_offsets(lat, lon, center_lat, center_lon, lon_cos, half_m):
    """(north_m, east_m, strictly inside the footprint) of geotags from tile
    centers, for floats and aligned arrays alike, with the same rounding;
    `lon_cos` is `geo.lon_cos` of each tile's center latitude."""
    north = (lat - center_lat) * METERS_PER_DEGREE
    east = (lon - center_lon) * METERS_PER_DEGREE * lon_cos
    return north, east, (abs(north) < half_m) & (abs(east) < half_m)


def separation_m2(lat_a, lon_a, lat_b, lon_b):
    """Squared flat-earth distance of the separation rule, cos scale at the mean latitude."""
    dn = (lat_a - lat_b) * METERS_PER_DEGREE
    de = (lon_a - lon_b) * METERS_PER_DEGREE * np.cos(np.radians((lat_a + lat_b) / 2))
    return dn * dn + de * de


# Candidate pairs per step of _neighbour_pairs, bounding its transient arrays.
PAIR_CHUNK = 1 << 13


def _neighbour_pairs(lats: np.ndarray, lons: np.ndarray, reach_m: float, queries: np.ndarray):
    """Yield (q, p) index arrays: every point p of the 3x3 grid cells around each
    point queries[q], q ascending, about PAIR_CHUNK pairs at a time. Cells are at
    least `reach_m` wide, east-west at the largest |lat| of the set, so every
    pair less than `reach_m` apart on both axes is among them."""
    # the pad absorbs rounding; at most 2**20 cells a side keeps keys in int64
    wlat = max(reach_m / METERS_PER_DEGREE * (1 + 1e-6), float(np.ptp(lats)) / 2**20)
    wlon = max(wlat / math.cos(math.radians(float(np.abs(lats).max()))),
               float(np.ptp(lons)) / 2**20)
    col = ((lons - lons.min()) / wlon).astype(np.int64)
    ncol = int(col.max()) + 2  # a spare column: a row's neighbours never wrap into the next
    key = ((lats - lats.min()) / wlat).astype(np.int64) * ncol + col
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    near = cells[:, None] + (np.arange(-1, 2)[:, None] * ncol + np.arange(-1, 2)).ravel()
    at = np.minimum(np.searchsorted(cells, near), len(cells) - 1)  # (cells, 9) neighbours
    n_near = np.where(cells[at] == near, count[at], 0)
    query_cell = np.searchsorted(cells, key[queries])
    per_query = n_near.sum(axis=1)[query_cell]
    # a step starts at each query whose first pair opens a new PAIR_CHUNK
    firsts = np.flatnonzero(np.diff((np.cumsum(per_query) - per_query) // PAIR_CHUNK, prepend=-1))
    for first, stop in zip(firsts, [*firsts[1:], len(queries)]):
        qc = query_cell[first:stop]
        n = n_near[qc].ravel()
        pos = np.arange(n.sum()) + np.repeat(start[at[qc]].ravel() - np.cumsum(n) + n, n)
        yield np.repeat(np.arange(first, stop), per_query[first:stop]), order[pos]


def sample_tiles(
    lats: np.ndarray, lons: np.ndarray, spec: TileSpec, min_sep_px: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy minimum-separation tile sampling over geotags, in input order.

    A point spawns a tile centered on itself unless an already spawned tile
    center lies strictly within min_sep_px * resolution meters. Every point is
    then assigned to every tile whose footprint strictly contains it, so one
    ground image can belong to several overlapping tiles. Both rules are tested
    on the pairs of neighbouring grid cells only, so time is linear in the points.

    Returns the index of each tile's center point, ascending, and the
    assignment as CSR: (T + 1,) `offsets` and (P,) `members`, tile t's
    ascending point indices being `members[offsets[t]:offsets[t + 1]]`.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if not lats.size:
        raise ValueError("points must be non-empty")
    if min_sep_px < 0:
        raise ValueError("min_sep_px must be >= 0")

    min_sep_m = min_sep_px * spec.resolution_m_per_px
    spawn = np.ones(lats.size, dtype=bool)
    for i, j in _neighbour_pairs(lats, lons, min_sep_m, np.arange(lats.size)) if min_sep_m else ():
        first = i[0]  # every point is its own candidate
        i, j = i[j < i], j[j < i]
        near = separation_m2(lats[i], lons[i], lats[j], lons[j]) < min_sep_m * min_sep_m
        i, j, settled = i[near], j[near], j[near] < first
        spawn[i[settled & spawn[j]]] = False
        # pairs within the step, i ascending: j's fate is known when i's comes
        for a, b in zip(i[~settled].tolist(), j[~settled].tolist()):
            spawn[a] &= not spawn[b]
    centers = np.flatnonzero(spawn)

    half = spec.half_extent_m
    cos_t = lon_cos(lats[centers])
    found = []
    for t, p in _neighbour_pairs(lats, lons, half, centers):
        c = centers[t]
        inside = footprint_offsets(lats[p], lons[p], lats[c], lons[c], cos_t[t], half)[2]
        found.append((t[inside], p[inside]))
    t, p = map(np.concatenate, zip(*found))
    offsets = np.append(0, np.cumsum(np.bincount(t, minlength=len(centers))))
    return centers, offsets, p[np.lexsort((p, t))]


def cap_subsample(
    offsets: np.ndarray, members: np.ndarray, cap: int = 25, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly subsample each tile's CSR segment of `members` down to at most
    `cap` entries; returns the capped (offsets, members).

    Tiles at or under the cap pass through unchanged. Retained entries keep
    their original relative order; the draw is deterministic for a fixed seed,
    one `rng.choice` per over-cap tile, in tile order.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rng = np.random.default_rng(seed)
    counts = np.diff(offsets)
    keep = np.ones(len(members), dtype=bool)
    for t in np.flatnonzero(counts > cap).tolist():
        segment = keep[offsets[t] : offsets[t + 1]]
        segment[:] = False
        segment[rng.choice(int(counts[t]), size=cap, replace=False)] = True
    return np.append(0, np.cumsum(np.minimum(counts, cap))), members[keep]
