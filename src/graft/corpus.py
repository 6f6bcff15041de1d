"""Dataset assembly: manifests -> paired ground/satellite records, plus the
synthetic world generator used for desk-scale verification.

Ground images arrive as manifest lines (`id lat lon timestamp embedding_ref`);
satellite coverage arrives as snapshot lines (`region_id timestamp blob_ref`)
whose blob refs resolve to feature-field files describing how raw patch
features are produced anywhere inside a region. Pairing spawns tiles at ground
geotags under a minimum-separation rule, caps grounds per tile, picks the
temporally closest snapshot per tile, and materializes each tile's raw patch
feature grid.

Grounds and tiles are held as columns (`GroundTable`, `TileTable`), end to
end: the manifest parser, the synthetic generator, pairing and the container
read and write whole columns, and no step builds one object per ground image.

The synthetic world is a Voronoi partition of a small extent into latent
land-cover classes. Patch features are a one-hot of the class at the patch
center plus gaussian noise; ground embeddings are noisy class centroids; text
fixtures map each rendered prompt to the exact class centroid. Everything is
reproducible from (config, seed).
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import frozen, geo
from .codec import FormatError, Reader, Writer, read_file
from .geo import GeoPoint, TileSpec
from .frozen import DEFAULT_PROMPTS, FrozenEncoder, PromptSet, first_repeat, save_embeddings

CONTAINER_MAGIC = b"GRFT"
CONTAINER_VERSION = 1

DEFAULT_CLASS_NAMES = (
    "forest", "water", "farmland", "urban", "sand", "grassland",
    "wetland", "rock", "ice", "scrub", "quarry", "orchard",
)

# Seed salts so the independent random streams of a world never collide.
_SALT_CLASS_SEEDS = 1
_SALT_GROUND_POINTS = 2
_SALT_GROUND_NOISE = 3
_SALT_TIMESTAMPS = 4
_SALT_FIELD_NOISE = 5
_SALT_CAP = 6


class ManifestError(ValueError):
    """A manifest line did not parse or violated manifest invariants."""


class IntegrityError(ValueError):
    """Cross-record references (embedding refs, blob refs, coverage) failed."""


class EmptyDatasetError(ValueError):
    """A manifest or dataset holds too few records for the command."""


DatasetFormatError = FormatError  # a container failed to parse; names the byte offset


class DatasetVersionError(DatasetFormatError):
    """Container magic or version is not one this code can read."""


def _fields_equal(a, b) -> bool:
    """Whether two dataclasses of one type agree on every compared field,
    arrays by shape and value: the equality of the column tables."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in dataclass_fields(a) if f.compare)
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@dataclass(eq=False)
class GroundTable:
    """N ground images as columns.

    Ground i is `ids[i]`, geotagged at (`lat[i]`, `lon[i]`), taken at
    `timestamp[i]` and embedded by the fixture entry `refs[i]`.
    """

    ids: list[str]
    lat: np.ndarray  # (N,) float64, in [-90, 90]
    lon: np.ndarray  # (N,) float64, in [-180, 180)
    timestamp: np.ndarray  # (N,) int64
    refs: list[str]

    __eq__ = _fields_equal

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SnapshotRecord:
    region_id: str
    timestamp: int
    blob_ref: str


@dataclass(eq=False)
class TileTable:
    """N satellite tiles as columns; every tile has the one raster geometry `spec`.

    Tile i is `ids[i]`, centered on (`lat[i]`, `lon[i]`) and taken from the
    snapshot at `timestamp[i]`; `features[i]` is its (G, G, F) grid of raw
    patch features, G = spec.grid_px.
    """

    spec: TileSpec
    ids: list[str]
    lat: np.ndarray  # (N,) float64
    lon: np.ndarray  # (N,) float64, in [-180, 180)
    timestamp: np.ndarray  # (N,) int64
    features: np.ndarray  # (N, G, G, F) float32; loaded: a read-only view of the file

    __eq__ = _fields_equal

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, indices) -> TileTable:
        """The tiles at `indices`, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return TileTable(self.spec, [self.ids[i] for i in idx.tolist()], self.lat[idx],
                         self.lon[idx], self.timestamp[idx], self.features[idx])


@dataclass
class PairBatch:
    """One training batch: tiles plus their (tile, ground) pairs, tile-major.

    Batch tile i is the dataset's tile `tiles[i]` and owns `sizes[i]`
    consecutive entries of the pair arrays.
    """

    tiles: np.ndarray  # (B,) index into the dataset's tiles
    sizes: np.ndarray  # (B,) grounds per tile, each >= 1
    ground: np.ndarray  # (M,) index into the dataset's grounds
    patch: np.ndarray  # (M,) flat patch index (prow * grid_px + pcol) under the geotag
    all_features: np.ndarray = field(repr=False)  # the dataset's (N, G, G, F) features

    @property
    def features(self) -> np.ndarray:
        """(B, G, G, F) float32 features of the batch's tiles, gathered on each
        access, so an epoch of batches holds no copy of the dataset's features."""
        return self.all_features[self.tiles]

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class PairIndex:
    """Where each of a dataset's P pairs falls in its tile, row-aligned with
    the dataset's `ground`."""

    pixel: np.ndarray  # (P, 2) raster (row, col) of the ground's geotag
    patch: np.ndarray  # (P,) flat patch index prow * grid_px + pcol


@dataclass(eq=False)
class PairedDataset:
    """Tiles, grounds and the (tile, ground) pairs between them as CSR arrays:
    tile t's grounds are `ground[offsets[t]:offsets[t + 1]]`, in pairing order."""

    tiles: TileTable
    grounds: GroundTable
    offsets: np.ndarray  # (T + 1,) int64, from 0 up to P
    ground: np.ndarray  # (P,) int64 index into `grounds`
    provenance: dict
    _pairs: PairIndex | None = field(default=None, init=False, repr=False, compare=False)

    __eq__ = _fields_equal

    def __post_init__(self):
        if len(self.offsets) != len(self.tiles) + 1 or self.offsets[-1] != len(self.ground):
            raise ValueError("one offset per tile and one more, the pair count, required")

    @property
    def n_pairs(self) -> int:
        return len(self.ground)

    def pair_index(self) -> PairIndex:
        """Each pair's pixel and patch, computed and checked on first use.

        Datasets are read-only after construction, so the pack is kept.
        """
        if self._pairs is None:
            self._pairs = _pack_pairs(self)
        return self._pairs


def _pack_pairs(ds: PairedDataset) -> PairIndex:
    """Vectorized geotag -> pixel -> patch mapping of every pair, with bounds checks.

    Offsets come from `geo.footprint_offsets` and the pixel is the floor of
    the offset from the tile's top-left corner, as one geotag at a time.
    Raises IntegrityError, naming the tile, for a tile without grounds, an
    assignment index out of range, a geotag outside the tile footprint or a
    pixel outside the patch grid.
    """
    tiles, spec, ground = ds.tiles, ds.tiles.spec, ds.ground
    counts = np.diff(ds.offsets)

    def fail(pair: int, what: str):
        tile = int(np.searchsorted(ds.offsets, pair, side="right")) - 1
        raise IntegrityError(f"tile {tiles.ids[tile]}: {what}")

    if not counts.all():  # every tile contrasts at least one ground
        raise IntegrityError(f"tile {tiles.ids[int(np.argmin(counts))]}: no grounds")
    bad = (ground < 0) | (ground >= len(ds.grounds))
    if bad.any():
        k = int(np.argmax(bad))
        fail(k, f"assignment index {ground[k]} out of range")

    center_lat, center_lon, lon_cos = (np.repeat(a, counts) for a in (
        tiles.lat, tiles.lon, geo.lon_cos(tiles.lat)))
    lat, lon = ds.grounds.lat[ground], ds.grounds.lon[ground]

    half, res = spec.half_extent_m, spec.resolution_m_per_px
    north, east, inside = geo.footprint_offsets(lat, lon, center_lat, center_lon, lon_cos, half)
    outside = ~inside
    if outside.any():
        k = int(np.argmax(outside))
        fail(k, f"ground {ground[k]} at ({lat[k]}, {lon[k]}) lies outside the footprint: "
                f"offset ({north[k]:.1f} m N, {east[k]:.1f} m E), half extent {half:.1f} m")
    row = np.floor(spec.size_px / 2 - north / res).astype(np.int64)
    col = np.floor(spec.size_px / 2 + east / res).astype(np.int64)
    prow, pcol = row // spec.patch_px, col // spec.patch_px
    off_grid = (row < 0) | (col < 0) | (prow >= spec.grid_px) | (pcol >= spec.grid_px)
    if off_grid.any():
        k = int(np.argmax(off_grid))
        fail(k, f"pixel ({row[k]}, {col[k]}) maps outside patch grid")
    return PairIndex(pixel=np.stack([row, col], axis=1), patch=prow * spec.grid_px + pcol)


def _parsed(convert, texts: Sequence[str]) -> list:
    """convert(t) for each of `texts` before the first that raises ValueError."""
    values: list = []
    try:
        values.extend(map(convert, texts))  # keeps the values converted before a failure
    except ValueError:
        pass
    return values


def _first(bad: np.ndarray, n: int) -> int:
    """Index of the first True in `bad`; n if there is none."""
    return int(np.argmax(bad)) if bad.any() else n


def _manifest_lines(path: str | Path, n_fields: int, ts_field: int):
    """The manifest lines that are neither blank nor a comment, split into fields.

    Returns the line numbers and the `n_fields` field columns of the lines
    before the first bad one, and that line's ManifestError (None if none).
    Column `ts_field` holds timestamps, ints in [0, 2**62], where snapshot
    noise keys are non-negative and timestamp gaps fit int64. A caller checks
    its own columns up to the bad line, so the first bad line is reported.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ManifestError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
    lines = text.splitlines()
    fields = list(map(str.split, lines))
    width = np.fromiter(map(len, fields), np.int64, len(fields))
    comment = np.fromiter(map(str.startswith, map(str.lstrip, lines), itertools.repeat("#")),
                          bool, len(lines))
    used = (width > 0) & ~comment
    linenos, width = (np.flatnonzero(used) + 1).tolist(), width[used]
    n = len(linenos)
    wrong = _first(width != n_fields, n)
    rows = list(itertools.compress(fields, used))[:wrong]
    columns = list(zip(*rows)) if rows else [()] * n_fields
    stamps = _parsed(int, columns[ts_field])
    out = n
    if stamps and not 0 <= min(stamps) <= max(stamps) <= 2**62:
        out = next(i for i, t in enumerate(stamps) if not 0 <= t <= 2**62)
    i = min(wrong, len(stamps), out)  # a line's checks run in this order
    failure = None
    if i < n:
        where = f"{path}:{linenos[i]}"
        if i == wrong:
            failure = ManifestError(f"{where}: expected {n_fields} fields, got {width[i]}")
        elif i == len(stamps):
            try:
                int(columns[ts_field][i])
            except ValueError as exc:
                failure = ManifestError(f"{where}: {exc}")
        else:
            failure = ManifestError(f"{where}: timestamp {stamps[i]} outside [0, 2**62]")
    columns = [c[:i] for c in columns]
    columns[ts_field] = stamps[:i]
    return linenos[:i], columns, failure


def parse_ground_manifest(path: str | Path) -> GroundTable:
    """Parse `id lat lon timestamp embedding_ref` lines; ids must be unique.

    `_manifest_lines` splits the lines; the id, latitude and longitude columns
    are then checked at once, with `geo.on_globe`. An error names the
    first line that has one, as a line-by-line parse would.
    """
    linenos, (ids, lat_s, lon_s, timestamps, refs), late = _manifest_lines(path, 5, 3)
    n = len(linenos)
    lat = np.array(_parsed(float, lat_s), dtype=np.float64)
    lon = np.array(_parsed(float, lon_s), dtype=np.float64)
    m = min(len(lat), len(lon))  # the first line whose lat or lon does not parse
    dup = first_repeat(ids)
    dup = n if dup is None else dup
    i = min(dup, m, _first(~geo.on_globe(lat[:m], lon[:m]), n))
    if i < n:  # a line's checks run in this order
        where = f"{path}:{linenos[i]}"
        if i == dup:
            raise ManifestError(f"{where}: duplicate ground id {ids[i]!r}")
        try:
            float(lat_s[i]), float(lon_s[i])
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from exc
        raise ManifestError(f"{where}: {geo.off_globe_reason(lat[i], lon[i])}")
    if late is not None:
        raise late
    return GroundTable(list(ids), lat, geo.wrap_lon(lon), np.array(timestamps, dtype=np.int64),
                       list(refs))


def parse_snapshot_manifest(path: str | Path) -> list[SnapshotRecord]:
    """Parse `region_id timestamp blob_ref` lines."""
    _, columns, failure = _manifest_lines(path, 3, 1)
    if failure is not None:
        raise failure
    return list(map(SnapshotRecord, *columns))


@dataclass
class VoronoiFeatureField:
    """Latent land-cover field: nearest class seed wins, features are noisy one-hots.

    Positions are projected onto a local flat-earth plane anchored at `origin`.
    Feature noise is drawn from a counter-style stream keyed by (noise_key,
    snapshot timestamp, quantized tile center), so any tile can be materialized
    independently, in any order, with identical results.
    """

    class_names: list[str]
    seeds_lat: np.ndarray  # (K,)
    seeds_lon: np.ndarray  # (K,)
    origin: GeoPoint
    bounds: tuple[float, float, float, float]  # lat_min, lat_max, lon_min, lon_max
    feature_dim: int
    noise_sigma: float
    noise_key: int

    def __post_init__(self):
        self.seeds_lat = np.asarray(self.seeds_lat, dtype=np.float64)
        self.seeds_lon = np.asarray(self.seeds_lon, dtype=np.float64)
        if not self.class_names:
            raise ValueError("class_names is empty")
        if len(self.class_names) != self.seeds_lat.shape[0]:
            raise ValueError("one seed point per class required")
        if self.feature_dim < len(self.class_names):
            raise ValueError("feature_dim must be >= number of classes")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma {self.noise_sigma} is not finite and >= 0")
        if not (np.isfinite(self.seeds_lat).all() and np.isfinite(self.seeds_lon).all()):
            raise ValueError("class seed coordinates must be finite")
        if self.noise_key < 0:
            raise ValueError(f"noise_key {self.noise_key} is negative")

    def _project(self, lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scale = geo.METERS_PER_DEGREE * math.cos(math.radians(self.origin.lat))
        return (
            (np.asarray(lons) - self.origin.lon) * scale,
            (np.asarray(lats) - self.origin.lat) * geo.METERS_PER_DEGREE,
        )

    def contains(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        lat_min, lat_max, lon_min, lon_max = self.bounds
        return (lat_min <= lats) & (lats <= lat_max) & (lon_min <= lons) & (lons <= lon_max)

    def class_at_many(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        x, y = self._project(lats, lons)
        sx, sy = self._project(self.seeds_lat, self.seeds_lon)
        d2 = (x[..., None] - sx) ** 2 + (y[..., None] - sy) ** 2
        return np.argmin(d2, axis=-1)

    def class_grid(self, tile: TileSpec, center: GeoPoint) -> np.ndarray:
        """(G, G) ground-truth class index at each patch center of one tile."""
        return class_grids(self, tile, [center.lat], [center.lon])[0]

    def materialize(self, tile: TileSpec, center: GeoPoint, snapshot_ts: int) -> np.ndarray:
        """(G, G, F) float32 raw features of one tile under one snapshot."""
        return materialize_many(self, tile, [center.lat], [center.lon], [snapshot_ts])[0]


# Tiles per float64 block of class_grids and materialize_many; only their
# results span every tile. A block of 64 tiles of 196 patches and 16 features
# is 1.6 MB of float64.
FIELD_BLOCK_TILES = 64


def class_grids(fld: VoronoiFeatureField, spec: TileSpec, lat, lon) -> np.ndarray:
    """(N, G, G) ground-truth class index at each patch center of the N tiles
    of geometry `spec` centered on (lat[i], lon[i]).

    Each tile's longitude scale is its own scalar `math.cos`, so its classes
    come from the same patch-center coordinates, bit for bit, as the tile's alone.
    Squared seed distances are summed from one per patch column and row. A tile
    that `_whole_tile_classes` finds to be of one class takes it; in the others
    the nearest seed is a running minimum over the K seeds, per block of tiles:
    a seed replaces the best so far only when strictly closer, so the first of
    equally near seeds wins, as in `np.argmin`. (The distances come from finite
    coordinates and are never NaN.)
    """
    lat0 = np.asarray(lat, dtype=np.float64)[:, None]
    lon0 = np.asarray(lon, dtype=np.float64)[:, None]
    lon_scale = geo.METERS_PER_DEGREE * geo.lon_cos(lat0[:, 0])[:, None]
    # (G,) offsets of the patch-center rows; those of the columns are their negation
    north = (spec.size_px / 2 - (np.arange(spec.grid_px) + 0.5) * spec.patch_px) \
        * spec.resolution_m_per_px
    x, y = fld._project(lat0 + north / geo.METERS_PER_DEGREE, lon0 - north / lon_scale)
    sx, sy = fld._project(fld.seeds_lat, fld.seeds_lon)
    # (K, N, G) offsets of the patch columns and rows from each seed
    ex, ey = x - sx[:, None, None], y - sy[:, None, None]
    whole = _whole_tile_classes(ex, ey)
    labels = np.broadcast_to(whole[:, None, None], (len(lat0), spec.grid_px, spec.grid_px)).copy()
    rest = np.flatnonzero(whole < 0)
    for i in range(0, len(rest), FIELD_BLOCK_TILES):
        b = rest[i : i + FIELD_BLOCK_TILES]
        dx2, dy2 = ex[:, b] ** 2, ey[:, b] ** 2
        best = dx2[0, :, None] + dy2[0, :, :, None]
        nearest = np.zeros(best.shape, dtype=np.intp)
        for k in range(1, len(sx)):
            d = dx2[k, :, None] + dy2[k, :, :, None]
            closer = d < best
            np.copyto(best, d, where=closer)
            np.copyto(nearest, k, where=closer)
        labels[b] = nearest
    return labels


def _whole_tile_classes(ex, ey) -> np.ndarray:
    """(N,) the class of each tile whose patches all have one nearest seed, -1
    for the others, from the (K, N, G) offsets of its patch columns and rows
    from each seed.

    The offsets are monotone along each axis, and rounded subtraction, squaring
    and addition are monotone, so the end patches of each axis give each
    seed's farthest patch distance `far` exactly and bound its nearest `near`
    from below (an axis whose ends lie on both sides of the seed adds 0). Seed
    k0 = argmin(far) is nearest to every patch, ties included, when far[k0] is
    below near[k] for every k < k0 and at most near[k] for every k > k0.
    """
    def ends(e):  # (K, N) largest and least squared offset along one axis
        a, b = e[..., 0], e[..., -1]
        return np.maximum(a * a, b * b), np.where((a < 0) == (b < 0), np.minimum(a * a, b * b), 0)

    (far_x, near_x), (far_y, near_y) = ends(ex), ends(ey)
    far, near = far_x + far_y, near_x + near_y
    k0 = np.argmin(far, axis=0)
    best = np.take_along_axis(far, k0[None], axis=0)
    seed = np.arange(len(far))[:, None]
    ok = np.where(seed < k0, best < near, best <= near) | (seed == k0)
    return np.where(ok.all(axis=0), k0, -1)


# SeedSequence's hash constants and PCG64's 128-bit multiplier, for `pcg64_states`
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """(n + 1, 1) uint32 column of init * mult**t mod 2**32, t = 0..n."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def pcg64_states(key: int, parts) -> list[dict]:
    """The `.state` of `np.random.PCG64(np.random.SeedSequence([key, *row]))`
    for the non-negative int `key` and each row of the (N, P) non-negative ints
    `parts`, derived for all rows at once.

    SeedSequence splits each int into its little-endian uint32 words (0 is one
    word) and hashes the first four into a pool, mixes the pool words into each
    other, then mixes every further word into every pool word. Its
    `generate_state(4, uint64)` hashes the pool twice over into PCG64's seed and
    stream, and PCG64 sets `inc = (stream << 1) | 1` and
    `state = (inc + seed) * MULT + inc` mod 2**128. The rows are grouped by
    their number of words, and each group is hashed by uint32 array operations,
    which wrap as SeedSequence's C code does. The 128-bit step is one product of
    Python ints per row, the form the state setter takes.
    """
    parts = np.asarray(parts, dtype=np.int64)
    if parts.size and parts.min() < 0:
        raise ValueError(f"noise key part {parts.min()} is negative")
    key_words = [key >> s & _MASK32 for s in range(0, max(key.bit_length(), 1), 32)]
    n_key = len(key_words)
    # each part's low word, then its high word when nonzero, packed to the left
    words = np.stack([parts & _MASK32, parts >> 32], axis=-1).reshape(len(parts), -1)
    kept = words != 0
    kept[:, 0::2] = True
    words = np.take_along_axis(words, np.argsort(~kept, axis=1, kind="stable"), axis=1)
    lengths = kept.sum(axis=1)
    states = [None] * len(parts)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        # a key shorter than the 4-word pool is padded with zeros, which
        # SeedSequence hashes in place of the missing words
        entropy = np.zeros((max(n_key + length, 4), len(rows)), dtype=np.uint32)
        entropy[:n_key] = np.array(key_words, dtype=np.uint32)[:, None]
        entropy[n_key:n_key + length] = words[rows, :length].T
        for row, state in zip(rows.tolist(), _seed_pcg64(entropy)):
            states[row] = state
    return states


def _seed_pcg64(entropy: np.ndarray) -> list[dict]:
    """PCG64 states seeded by SeedSequence from each column of the (L, N)
    uint32 `entropy`, L >= 4 (the pool size)."""
    n_words, n = entropy.shape
    a = _hash_consts(_SS_INIT_A, _SS_MULT_A, 4 * n_words)
    calls = 0

    def hashmix(v, k: int) -> np.ndarray:  # the next k hashmix calls, one per row of v
        nonlocal calls
        v = v ^ a[calls:calls + k]
        v *= a[calls + 1:calls + k + 1]
        v ^= v >> 16
        calls += k
        return v

    def mix(x, y) -> np.ndarray:
        x = x * np.uint32(_SS_MIX_L)
        x -= y * np.uint32(_SS_MIX_R)
        x ^= x >> 16
        return x

    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for src in range(4, n_words):
        pool = mix(pool, hashmix(entropy[src], 4))
    b = _hash_consts(_SS_INIT_B, _SS_MULT_B, 8)
    w = np.vstack([pool, pool]) ^ b[:8]
    w *= b[1:]
    w ^= w >> 16
    w = w.astype(np.uint64)
    seed_hi, seed_lo, stream_hi, stream_lo = (w[0::2] | w[1::2] << 32).tolist()
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, stream_hi, stream_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def materialize_many(
    fld: VoronoiFeatureField, spec: TileSpec, lat, lon, timestamps
) -> np.ndarray:
    """(N, G, G, F) float32 raw features of the N tiles of geometry `spec`
    centered on (lat[i], lon[i]), tile i under snapshot `timestamps[i]`.

    Each tile draws its noise from its own stream, `PCG64(SeedSequence(key))`
    with key (noise_key, snapshot timestamp, quantized tile center), so its
    features equal, bit for bit, those of the tile materialized alone. The
    streams of a block of tiles are seeded at once (`pcg64_states`), and each
    tile's noise is drawn in place into one float64 block and scaled. Then 1.0
    is added at each patch's label, and 0.0 everywhere in the float32 cast:
    adding (not assigning) keeps `0 + (-0.0)` a positive zero, so a noise-free
    field (sigma 0) gives the bare one-hots.
    """
    lat, lon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
    if not len(timestamps) == len(lat) == len(lon):
        raise ValueError(f"{len(lat)} lats, {len(lon)} lons and {len(timestamps)} timestamps")
    centers = np.rint([(lat + 90.0) * 1e7, (lon + 180.0) * 1e7])
    if not np.all((0 <= centers) & (centers < 2.0**63)):
        raise ValueError("a tile center is not finite or lies off the globe")
    parts = np.column_stack([np.asarray(timestamps, dtype=np.int64), *centers.astype(np.int64)])
    g, f = spec.grid_px, fld.feature_dim
    features = np.empty((len(lat), g, g, f), dtype=np.float32)
    block = np.empty((min(len(lat), FIELD_BLOCK_TILES), g, g, f))
    bits = np.random.PCG64(0)  # set to each tile's own state before its draw
    normals = np.random.Generator(bits)
    for start in range(0, len(lat), FIELD_BLOCK_TILES):
        rows = slice(start, start + FIELD_BLOCK_TILES)
        labels = class_grids(fld, spec, lat[rows], lon[rows])
        noise = block[:len(labels)]
        for i, state in enumerate(pcg64_states(fld.noise_key, parts[rows])):
            bits.state = state
            normals.standard_normal(out=noise[i])
        noise *= fld.noise_sigma
        np.add.at(noise.reshape(-1), np.arange(0, noise.size, f) + labels.ravel(), 1.0)
        np.add(noise, 0.0, out=features[rows], casting="unsafe")
    return features


def save_feature_field(fld: VoronoiFeatureField, path: str | Path) -> None:
    payload = {
        "format": "voronoi-onehot-field",
        "version": 1,
        "class_names": list(fld.class_names),
        "seeds_lat": fld.seeds_lat.tolist(),
        "seeds_lon": fld.seeds_lon.tolist(),
        "origin": [fld.origin.lat, fld.origin.lon],
        "bounds": list(fld.bounds),
        "feature_dim": fld.feature_dim,
        "noise_sigma": fld.noise_sigma,
        "noise_key": fld.noise_key,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _numbers(v, n: int | None = None) -> bool:
    """Whether v is a JSON list of numbers, n of them if given; a bool is no number."""
    return (type(v) is list and (n is None or len(v) == n)
            and all(type(x) in (int, float) for x in v))


def _reader(ok, what: str, read=lambda v: v):
    """Reader of a field.json value: read(v), or TypeError unless ok(v)."""
    def check(v):
        if not ok(v):
            raise TypeError(f"{v!r} is not {what}")
        return read(v)
    return check


# Keys of a field.json payload and how each is read; a value of the wrong JSON
# type raises, so a malformed field exits 4 naming its key.
_FIELD_KEYS = {
    "class_names": _reader(lambda v: type(v) is list and all(type(x) is str for x in v),
                           "a list of strings"),
    "seeds_lat": _reader(_numbers, "a list of numbers", np.array),
    "seeds_lon": _reader(_numbers, "a list of numbers", np.array),
    "origin": _reader(lambda v: _numbers(v, 2), "a list of 2 numbers", lambda v: GeoPoint(*v)),
    "bounds": _reader(lambda v: _numbers(v, 4) and all(map(math.isfinite, v)),
                      "a list of 4 finite numbers", tuple),
    "feature_dim": _reader(lambda v: type(v) is int, "an integer"),
    "noise_sigma": _reader(lambda v: type(v) in (int, float), "a number", float),
    "noise_key": _reader(lambda v: type(v) is int, "an integer"),
}


def load_feature_field(path: str | Path) -> VoronoiFeatureField:
    """Read a field.json; a payload that does not describe a field raises IntegrityError."""
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IntegrityError(f"feature field {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError(f"feature field {path} is not a JSON object")
    if payload.get("format") != "voronoi-onehot-field":
        raise IntegrityError(f"feature field {path} has unknown format")
    values = {}
    for key, read in _FIELD_KEYS.items():
        if key not in payload:
            raise IntegrityError(f"feature field {path} lacks key {key!r}")
        try:
            values[key] = read(payload[key])
        except (TypeError, ValueError) as exc:
            raise IntegrityError(f"feature field {path} has a malformed {key!r}: {exc}") from exc
    try:
        return VoronoiFeatureField(**values)
    except ValueError as exc:
        raise IntegrityError(f"feature field {path}: {exc}") from exc


def select_snapshot(candidates: Sequence[int], target, usable: np.ndarray | None = None):
    """Index of the timestamp closest to target; ties go to the earlier snapshot,
    then the lower index. An array of T targets, each among the candidates of
    its column of the (S, T) mask `usable`, gets one index each."""
    ts = np.asarray(candidates, dtype=np.int64)
    if ts.size == 0:
        raise ValueError("no snapshot candidates")
    rank = np.argsort(ts, kind="stable")
    gap = np.abs(np.subtract.outer(ts[rank], target))
    if usable is not None:
        gap[~usable[rank]] = np.iinfo(np.int64).max
    return rank[np.argmin(gap, axis=0)]


def _tile_id_width(n: int) -> int:
    """Digits in the ids `t000000`... of n tiles: one width for all of them, so
    every container record has the same size, and 6 up to a million tiles."""
    return max(6, len(str(n - 1)))


def build_pairs(
    grounds: GroundTable,
    snapshots: Sequence[SnapshotRecord],
    spec: TileSpec,
    cap: int = 25,
    min_sep_px: int = 112,
    seed: int = 0,
    *,
    fields: Mapping[str, VoronoiFeatureField],
    embeddings: FrozenEncoder | None = None,
) -> PairedDataset:
    """Pair ground images with freshly sampled satellite tiles of geometry `spec`.

    Tiles spawn at ground geotags under the minimum-separation rule, each keeps
    at most `cap` grounds (seeded uniform subsample), and each picks the
    snapshot temporally closest to the mean timestamp of its grounds. Tile
    features come from the snapshot's feature field.
    """
    if not len(grounds):
        raise EmptyDatasetError("ground manifest is empty")
    if not snapshots:
        raise IntegrityError("snapshot manifest is empty")
    missing_blobs = sorted({s.blob_ref for s in snapshots} - set(fields))
    if missing_blobs:
        raise IntegrityError(f"unresolvable feature blob refs: {missing_blobs}")
    missing = set() if embeddings is None else set(grounds.refs).difference(embeddings.index)
    if missing:
        bad = [gid for gid, ref in zip(grounds.ids, grounds.refs) if ref in missing]
        raise IntegrityError(
            f"{len(bad)} ground records with unresolvable embedding_ref: "
            f"{bad[:10]}{'...' if len(bad) > 10 else ''}"
        )

    centers, offsets, members = geo.sample_tiles(grounds.lat, grounds.lon, spec, min_sep_px)
    cap_seed = int(np.random.SeedSequence([seed, _SALT_CAP]).generate_state(1)[0])
    offsets, members = geo.cap_subsample(offsets, members, cap=cap, seed=cap_seed)
    lat, lon = grounds.lat[centers], grounds.lon[centers]

    # no tile is empty: each keeps at least the ground at its center
    cover = np.array([fields[s.blob_ref].contains(lat, lon) for s in snapshots])  # (S, T)
    if not cover.any(axis=0).all():
        k = int(np.argmin(cover.any(axis=0)))
        raise IntegrityError(f"no snapshot region covers tile at ({lat[k]:.5f}, {lon[k]:.5f})")
    # mean ground timestamp per tile, summed exactly in Python ints (an object
    # array), so no sum of timestamps up to 2**62 can wrap
    sums = np.add.reduceat(grounds.timestamp.astype(object)[members], offsets[:-1])
    target = np.rint((sums / np.diff(offsets)).astype(np.float64)).astype(np.int64)
    snap = select_snapshot([s.timestamp for s in snapshots], target, cover)
    timestamp = np.array([s.timestamp for s in snapshots], dtype=np.int64)[snap]
    blob = np.array([s.blob_ref for s in snapshots])[snap]

    # one blocked materialization per feature field; with one field, as in every
    # synth world, its result is the feature array itself, never copied
    tiles_of = {ref: np.flatnonzero(blob == ref) for ref in dict.fromkeys(blob.tolist())}
    dims = sorted({fields[ref].feature_dim for ref in tiles_of})
    if len(dims) > 1:
        raise IntegrityError(f"the feature fields of one dataset differ in feature_dim: {dims}")
    grids = [materialize_many(fields[ref], spec, lat[idx], lon[idx], timestamp[idx])
             for ref, idx in tiles_of.items()]
    features = grids[0]
    if len(grids) > 1:
        features = np.empty((len(lat), *features.shape[1:]), dtype=np.float32)
        for idx, part in zip(tiles_of.values(), grids):
            features[idx] = part
    w = _tile_id_width(len(lat))
    tiles = TileTable(spec, [f"t{i:0{w}d}" for i in range(len(lat))], lat, lon, timestamp, features)
    provenance = {
        "seed": seed,
        "cap": cap,
        "min_sep_px": min_sep_px,
        "tile": asdict(spec),
        "n_tiles": len(tiles),
        "n_grounds": len(grounds),
        "n_pairs": len(members),
    }
    return PairedDataset(tiles, grounds, offsets, members, provenance)


def _segments(offsets: np.ndarray, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sizes of the CSR segments of `tiles` and the positions of their
    entries, concatenated in the order of `tiles`."""
    sizes = offsets[tiles + 1] - offsets[tiles]
    return sizes, np.arange(sizes.sum()) + np.repeat(offsets[tiles] - (np.cumsum(sizes) - sizes),
                                                     sizes)


def subset_tiles(ds: PairedDataset, indices: Sequence[int]) -> PairedDataset:
    """A dataset restricted to the given tile indices (ground list is shared)."""
    tiles = ds.tiles.take(indices)
    sizes, rows = _segments(ds.offsets, np.asarray(indices, dtype=np.intp))
    provenance = dict(ds.provenance)
    provenance["subset_of"] = provenance.get("n_tiles", len(ds.tiles))
    provenance["n_tiles"] = len(tiles)
    provenance["n_pairs"] = len(rows)
    return PairedDataset(tiles, ds.grounds, np.append(0, np.cumsum(sizes)), ds.ground[rows],
                         provenance)


def make_batches(ds: PairedDataset, batch_size: int, seed: int = 0) -> list[PairBatch]:
    """One epoch of batches: seeded tile permutation, chunks of `batch_size`.

    A final short chunk is kept only if it still has at least two tiles; a
    lone leftover tile cannot contrast against anything and is dropped.
    Pair indices come from the dataset's pack, so no geotag is mapped twice.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    pairs = ds.pair_index()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds.tiles))
    batches: list[PairBatch] = []
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        if len(chunk) < batch_size and len(chunk) < 2:
            break
        sizes, rows = _segments(ds.offsets, chunk)
        batches.append(PairBatch(tiles=chunk, sizes=sizes, ground=ds.ground[rows],
                                 patch=pairs.patch[rows], all_features=ds.tiles.features))
    return batches


@dataclass(frozen=True)
class SynthWorldConfig:
    n_classes: int = 8
    embed_dim: int = 16
    feature_dim: int = 16
    extent_km: float = 10.0
    n_ground: int = 2000
    noise_sigma: float = 0.1
    n_snapshots: int = 3
    center_lat: float = 43.0
    center_lon: float = -76.0
    prompts: tuple[str, ...] = DEFAULT_PROMPTS

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.embed_dim < self.n_classes or self.feature_dim < self.n_classes:
            raise ValueError("embed_dim and feature_dim must be >= n_classes")
        if not 0 < self.extent_km < math.inf:
            raise ValueError(f"extent {self.extent_km} km is not positive and finite")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma {self.noise_sigma} is not finite and non-negative")
        if not geo.on_globe(self.center_lat, self.center_lon):
            raise ValueError(f"center {geo.off_globe_reason(self.center_lat, self.center_lon)}")
        lat_min, lat_max, lon_min, lon_max = self.bounds
        if not -90.0 <= lat_min <= lat_max <= 90.0:
            raise ValueError(f"a {self.extent_km} km extent at latitude {self.center_lat} "
                             f"crosses a pole")
        if not -180.0 <= lon_min <= lon_max < 180.0:
            raise ValueError(f"a {self.extent_km} km extent at longitude {self.center_lon} "
                             f"crosses the antimeridian")
        if self.n_ground < 1 or self.n_snapshots < 1:
            raise ValueError("need at least one ground image and one snapshot")

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(lat_min, lat_max, lon_min, lon_max) of the square extent around the
        center, its longitude wrapped into [-180, 180)."""
        half_m = self.extent_km * 1000.0 / 2.0
        dlat = half_m / geo.METERS_PER_DEGREE
        dlon = half_m / (geo.METERS_PER_DEGREE * math.cos(math.radians(self.center_lat)))
        lon = geo.wrap_lon(self.center_lon)
        return self.center_lat - dlat, self.center_lat + dlat, lon - dlon, lon + dlon


@dataclass
class SynthWorld:
    config: SynthWorldConfig
    seed: int
    field: VoronoiFeatureField
    grounds: GroundTable
    snapshots: list[SnapshotRecord]
    ground_encoder: FrozenEncoder
    text_encoder: FrozenEncoder

    @property
    def class_names(self) -> list[str]:
        return self.field.class_names

    def write(self, outdir: str | Path) -> dict[str, Path]:
        """Write manifests, fixtures, field and summary into a directory."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {
            "ground_manifest": outdir / "ground_manifest.txt",
            "snapshot_manifest": outdir / "snapshot_manifest.txt",
            "field": outdir / "field.json",
            "ground_embeddings": outdir / "ground_embeddings.bin",
            "text_embeddings": outdir / "text_embeddings.bin",
            "world": outdir / "world.json",
        }
        g = self.grounds
        lines = map("{} {!r} {!r} {} {}".format, g.ids, g.lat.tolist(), g.lon.tolist(),
                    g.timestamp.tolist(), g.refs)
        paths["ground_manifest"].write_text("\n".join(lines) + "\n")
        lines = [f"{s.region_id} {s.timestamp} {s.blob_ref}" for s in self.snapshots]
        paths["snapshot_manifest"].write_text("\n".join(lines) + "\n")
        save_feature_field(self.field, paths["field"])
        for key, enc in (("ground_embeddings", self.ground_encoder),
                         ("text_embeddings", self.text_encoder)):
            save_embeddings(paths[key], enc.keys, enc.vectors)
        summary = {
            "seed": self.seed,
            "config": asdict(self.config),
            "class_names": self.class_names,
            "n_ground": len(self.grounds),
            "n_snapshots": len(self.snapshots),
            "files": {k: p.name for k, p in paths.items() if k != "world"},
        }
        paths["world"].write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
        return paths


def synth_world(cfg: SynthWorldConfig, seed: int = 0) -> SynthWorld:
    """Generate a verifiable synthetic world; bit-identical for a fixed seed."""
    k = cfg.n_classes
    center = GeoPoint(cfg.center_lat, cfg.center_lon)
    bounds = cfg.bounds

    names = list(DEFAULT_CLASS_NAMES[:k])
    names += [f"landcover{i}" for i in range(len(names), k)]
    noise_key = int(np.random.SeedSequence([seed, _SALT_FIELD_NOISE]).generate_state(1)[0])

    # Class seeds: uniform draws, re-drawn (bounded) until the induced cell
    # areas are balanced, so no class collapses into a sliver. A plain single
    # draw routinely produces 5x area spreads, which would break the 3x bound
    # on empirical class frequencies that downstream checks rely on. When no
    # draw gives every class a raster point, the first draw is kept.
    rng_seeds = np.random.default_rng(np.random.SeedSequence([seed, _SALT_CLASS_SEEDS]))
    raster = np.meshgrid(np.linspace(bounds[0], bounds[1], 48),
                         np.linspace(bounds[2], bounds[3], 48), indexing="ij")
    fld, best_ratio = None, math.inf
    for _ in range(500):
        cand = VoronoiFeatureField(
            class_names=names, seeds_lat=rng_seeds.uniform(bounds[0], bounds[1], size=k),
            seeds_lon=rng_seeds.uniform(bounds[2], bounds[3], size=k), origin=center,
            bounds=bounds, feature_dim=cfg.feature_dim, noise_sigma=cfg.noise_sigma,
            noise_key=noise_key)
        counts = np.bincount(cand.class_at_many(*raster).ravel(), minlength=k)
        ratio = math.inf if counts.min() == 0 else counts.max() / counts.min()
        if fld is None or ratio < best_ratio:
            fld, best_ratio = cand, ratio
        if ratio <= 2.2:
            break

    base_ts = 1_700_000_000
    snap_step = 10 * 86_400
    snapshots = [
        SnapshotRecord("world", base_ts + s * snap_step, "field.json")
        for s in range(cfg.n_snapshots)
    ]

    rng_pts = np.random.default_rng(np.random.SeedSequence([seed, _SALT_GROUND_POINTS]))
    rng_emb = np.random.default_rng(np.random.SeedSequence([seed, _SALT_GROUND_NOISE]))
    rng_ts = np.random.default_rng(np.random.SeedSequence([seed, _SALT_TIMESTAMPS]))
    lat_g = rng_pts.uniform(bounds[0], bounds[1], size=cfg.n_ground)
    lon_g = rng_pts.uniform(bounds[2], bounds[3], size=cfg.n_ground)
    labels = fld.class_at_many(lat_g, lon_g)
    ts_lo = base_ts - 5 * 86_400
    ts_hi = base_ts + (cfg.n_snapshots - 1) * snap_step + 5 * 86_400
    timestamps = rng_ts.integers(ts_lo, ts_hi, size=cfg.n_ground)

    centroids = np.zeros((k, cfg.embed_dim))
    centroids[np.arange(k), np.arange(k)] = 1.0
    ids = list(map("g{:06d}".format, range(cfg.n_ground)))
    grounds = GroundTable(ids, lat_g, geo.wrap_lon(lon_g), timestamps, ids)
    # one noise row per ground, drawn in ground order from one stream; each
    # embedding is normalized on its own, then once more as a table entry
    noise = rng_emb.standard_normal((cfg.n_ground, cfg.embed_dim))
    vecs = FrozenEncoder.from_vectors(ids, centroids[labels] + cfg.noise_sigma * noise).vectors

    prompt_set = PromptSet(cfg.prompts)
    text_table = {rendered: centroids[ci] for ci, name in enumerate(names)
                  for rendered in prompt_set.render(name)}

    return SynthWorld(
        config=cfg,
        seed=seed,
        field=fld,
        grounds=grounds,
        snapshots=snapshots,
        ground_encoder=FrozenEncoder.from_vectors(ids, vecs),
        text_encoder=FrozenEncoder.from_vectors(list(text_table), list(text_table.values())),
    )


_WORLD_FILES = ("ground_manifest", "snapshot_manifest", "field", "ground_embeddings",
                "text_embeddings")


class LoadedWorld:
    """A world directory as the CLI reads it: each part is read on first use.

    `load_world_dir` checks `world.json` and resolves the five file paths. The
    ground manifest, snapshot manifest, field and both fixtures are parsed only
    when a command first reads `grounds`, `snapshots`, `field`,
    `ground_encoder` or `text_encoder`, so a command never opens, or fails on,
    a file it does not use.
    """

    def __init__(self, files: Mapping[str, Path]):
        self.files = files

    @cached_property
    def grounds(self) -> GroundTable:
        return parse_ground_manifest(self.files["ground_manifest"])

    @cached_property
    def snapshots(self) -> list[SnapshotRecord]:
        return parse_snapshot_manifest(self.files["snapshot_manifest"])

    @cached_property
    def field(self) -> VoronoiFeatureField:
        return load_feature_field(self.files["field"])

    @cached_property
    def ground_encoder(self) -> FrozenEncoder:
        return frozen.load_embeddings(self.files["ground_embeddings"])

    @cached_property
    def text_encoder(self) -> FrozenEncoder:
        return frozen.load_embeddings(self.files["text_embeddings"])

    @property
    def class_names(self) -> list[str]:
        return self.field.class_names


def load_world_dir(worlddir: str | Path) -> LoadedWorld:
    """Check a world directory's `world.json`; its other files load on first use."""
    worlddir = Path(worlddir)
    world_file = worlddir / "world.json"
    if not world_file.exists():
        raise FileNotFoundError(f"no world.json in {worlddir}")
    try:
        meta = json.loads(world_file.read_text())
        files = {key: worlddir / meta["files"][key] for key in _WORLD_FILES}
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON and UTF-8
        raise IntegrityError(f"{world_file} is not a world summary: {exc!r}") from exc
    return LoadedWorld(files)


def resolve_fields(
    snapshots: Sequence[SnapshotRecord], basedir: str | Path
) -> dict[str, VoronoiFeatureField]:
    """Load every distinct feature blob referenced by a snapshot manifest."""
    fields: dict[str, VoronoiFeatureField] = {}
    for snap in snapshots:
        if snap.blob_ref in fields:
            continue
        path = Path(basedir) / snap.blob_ref
        if not path.exists():
            raise IntegrityError(f"feature blob {snap.blob_ref!r} not found in {basedir}")
        fields[snap.blob_ref] = load_feature_field(path)
    return fields


# a tile record's header, after its id; `channels`, written as 3, once held a
# channel count that nothing read
_TILE_HEADER = "<dddIIqIIII"
_TILE_FIELDS = ("lat", "lon", "resolution", "size_px", "patch_px", "timestamp", "channels",
                "grid_rows", "grid_cols", "feature_dim")


# a ground record is its id, this geotag and timestamp, then its embedding ref
_GROUND_POINT = np.dtype([("lat", "<f8"), ("lon", "<f8"), ("timestamp", "<i8")])


def _tile_record(id_len: int, grid: Sequence[int] | None = None) -> np.dtype:
    """One tile record: u16 id length, the id, the `_TILE_HEADER` fields, then,
    given its grid, the features."""
    header = [(name, "<" + code) for name, code in zip(_TILE_FIELDS, _TILE_HEADER[1:])]
    features = [] if grid is None else [("features", "<f4", tuple(grid))]
    return np.dtype([("id_len", "<u2"), ("id", f"S{id_len}"), *header, *features])


def save_dataset(ds: PairedDataset, path: str | Path) -> None:
    """Write the versioned binary container: magic, version, four sections.

    Tile records are fixed-size, so all tile ids must have one UTF-8 byte length;
    they must also differ, as every reader requires.
    Every tile's id and header are packed as one record array; the section is
    its records' bytes, each followed by a byte view of that tile's features,
    not a copy.
    """
    t, spec = ds.tiles, ds.tiles.spec
    ids = [tid.encode("utf-8") for tid in t.ids]
    if len({len(b) for b in ids}) > 1 or any(b.endswith(b"\0") for b in ids):
        raise ValueError("tile ids must share one UTF-8 byte length and not end in a NUL byte")
    repeat = first_repeat(t.ids)
    if repeat is not None:
        raise ValueError(f"tile id {t.ids[repeat]!r} repeats an earlier tile's")
    tiles = Writer()
    tiles.pack("<I", len(t))
    if ids:
        head = np.empty(len(t), _tile_record(len(ids[0])))
        head["id_len"], head["id"], head["channels"] = len(ids[0]), ids, 3
        head["lat"], head["lon"], head["timestamp"] = t.lat, t.lon, t.timestamp
        head["resolution"], head["size_px"], head["patch_px"] = (
            spec.resolution_m_per_px, spec.size_px, spec.patch_px)
        head["grid_rows"], head["grid_cols"], head["feature_dim"] = t.features.shape[1:]
        packed, w = head.tobytes(), head.itemsize
        features = np.asarray(t.features, dtype="<f4").reshape(len(t), -1).view(np.uint8)
        heads = (packed[i : i + w] for i in range(0, len(packed), w))
        tiles.parts += itertools.chain.from_iterable(zip(heads, map(memoryview, features)))

    g = ds.grounds
    point = np.empty(len(g), dtype=_GROUND_POINT)
    point["lat"], point["lon"], point["timestamp"] = g.lat, g.lon, g.timestamp
    grounds = Writer()
    grounds.pack("<I", len(g))
    grounds.records([g.ids, point.view(np.uint8).reshape(len(g), point.itemsize), g.refs])

    # each list is its u32 length, then its u32 members
    if ds.ground.size and not 0 <= ds.ground.min() <= ds.ground.max() <= 0xFFFFFFFF:
        raise ValueError("assignment index outside [0, 2**32)")
    assigns = Writer()
    assigns.pack("<I", len(ds.tiles))
    assigns.array(np.insert(ds.ground, ds.offsets[:-1], np.diff(ds.offsets)), "<u4")

    prov = Writer()
    prov.json(ds.provenance)

    out = Writer()
    out.header(CONTAINER_MAGIC, CONTAINER_VERSION)
    for section in (tiles, grounds, assigns, prov):
        out.section(section)
    out.save(path)


def _container_sections(path: str | Path) -> tuple[Reader, Reader, Reader, Reader]:
    """Readers over a container's four sections, after checking magic, version,
    every section length and that no byte follows the last section."""
    r = Reader(read_file(path), f"container {path}")
    r.header(CONTAINER_MAGIC, CONTAINER_VERSION, DatasetVersionError)
    sections = tuple(r.section() for _ in range(4))
    r.done()
    return sections


def _read_tiles(r: Reader) -> TileTable:
    """The tile section as one record array over the file's bytes.

    Tile 0's id length and feature grid fix the record size, which is checked
    against the section's size before anything is mapped; every record must
    then share tile 0's layout and have an id of its own. The columns are
    views of the records, so the features are a read-only view of the buffer
    the file was read into (`codec.read_file`), not a copy. An empty section
    reads as a table of the default geometry.
    """
    (n,) = r.unpack("<I")
    at, first, left = r.off - 4, r.off, r.end - r.off

    def fits(record: int) -> None:  # every tile record takes at least `record` bytes
        if n * record > left:
            raise r.fail(f"{n} tiles of at least {record} bytes overrun the {left} bytes left", at)

    head = 2 + struct.calcsize(_TILE_HEADER)  # id length and header
    fits(head)
    if n == 0:
        r.done()
        spec = TileSpec()
        return TileTable(spec, [], np.empty(0), np.empty(0), np.empty(0, dtype=np.int64),
                         np.empty((0, spec.grid_px, spec.grid_px, 0), dtype=np.float32))
    tile0 = Reader(r.data, r.what, first, r.end)
    id_len = tile0.unpack("<H")[0]
    tile0.advance(id_len)
    _, _, res, size_px, patch_px, _, _, *grid = tile0.unpack(_TILE_HEADER)
    try:
        spec = TileSpec(res, size_px, patch_px)
    except ValueError as exc:
        raise r.fail(f"invalid tile geometry ({exc})", first) from exc
    if grid[:2] != [spec.grid_px] * 2 or not grid[2]:
        raise r.fail(f"feature grid {tuple(grid)} does not fill the "
                     f"{spec.grid_px}x{spec.grid_px} patch layout", first)
    record = head + id_len + 4 * math.prod(grid)
    fits(record)  # before the dtype, whose size numpy bounds
    rec = np.frombuffer(r.data, _tile_record(id_len, grid), n, r.advance(n * record))

    def at(bad: np.ndarray) -> int:  # the byte offset of the first flagged record
        return first + int(np.argmax(bad)) * record

    differs = np.zeros(n, dtype=bool)
    for name in ("id_len", "resolution", "size_px", "patch_px", "grid_rows", "grid_cols",
                 "feature_dim"):
        differs |= rec[name] != rec[name][0]
    if differs.any():
        raise r.fail("tile id length, geometry or feature grid differs from tile 0's", at(differs))
    r.done()
    try:
        ids = np.char.decode(rec["id"], "utf-8").tolist()
    except UnicodeDecodeError as exc:  # the bad ids are those that do not round-trip
        lossy = np.char.decode(rec["id"], "utf-8", "replace")
        bad = np.char.encode(lossy, "utf-8") != rec["id"]
        raise r.fail(f"invalid UTF-8 string ({exc.reason})", at(bad) + 2) from None
    if (i := first_repeat(ids)) is not None:
        raise r.fail(f"tile id {ids[i]!r} repeats an earlier tile's", first + i * record)
    lat, lon, features = rec["lat"], rec["lon"], rec["features"]
    # a float64 sum of finite float32 values cannot overflow: it is finite
    # exactly when every feature of the tile is, and needs no (N, G, G, F) mask;
    # a signaling NaN or inf + -inf would also print numpy's "invalid" warning
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(features.sum(axis=(1, 2, 3), dtype=np.float64))
    for bad, what in ((~geo.on_globe(lat, lon), "center off the globe"),
                      (~finite, "non-finite patch features")):
        if bad.any():
            raise r.fail(f"tile {ids[int(np.argmax(bad))]!r}: {what}", at(bad))
    return TileTable(spec, ids, lat, geo.wrap_lon(lon), rec["timestamp"], features)


def _read_grounds(r: Reader) -> GroundTable:
    """The ground section: one scan of its string lengths, then columns.

    A record whose geotag is not `geo.on_globe` fails at its offset.
    """
    (count,) = r.unpack("<I")
    texts, (point, _), starts, failure = r.records(count, (_GROUND_POINT.itemsize, 0))
    point = point.view(_GROUND_POINT)[:, 0]
    lat, lon = point["lat"], point["lon"]
    bad = ~geo.on_globe(lat, lon)
    if bad.any():
        i = int(np.argmax(bad))
        raise r.fail(f"invalid ground record ({geo.off_globe_reason(lat[i], lon[i])})",
                     int(starts[i]))
    if failure is not None:
        raise failure
    r.done()
    return GroundTable(texts[0::2], lat.copy(), geo.wrap_lon(lon), point["timestamp"].copy(),
                       texts[1::2])


def _read_assignments(r: Reader) -> tuple[np.ndarray, np.ndarray]:
    """The assignment section as CSR (offsets, ground): a u32 count of lists,
    each a u32 length, then its u32 members. One walk over the length words
    finds the lists; the members are the words left once those are deleted."""
    (count,) = r.unpack("<I")
    base, left = r.off, r.end - r.off
    if 4 * count > left:
        raise r.fail(f"{count} assignment lists of at least 4 bytes overrun the {left} bytes "
                     f"left", base - 4)
    words = np.frombuffer(r.data, "<u4", left // 4, base)
    starts = np.empty(count, dtype=np.int64)
    at = 0  # the word of the next list's length
    for k in range(count):
        n = int(words[at]) if at < len(words) else 0
        if at + 1 + n > len(words):  # cut off: fail as reading the list would
            r.advance(4 * at)
            r.advance(4 * r.unpack("<I")[0])
        starts[k] = at
        at += 1 + n
    r.advance(4 * at)
    r.done()
    return (np.append(0, np.cumsum(words[starts], dtype=np.int64)),
            np.delete(words[:at], starts).astype(np.int64))


def load_tiles(path: str | Path) -> TileTable:
    """The tiles of a container; its frames are checked as by load_dataset, but
    only the tile section is decoded."""
    return _read_tiles(_container_sections(path)[0])


def load_dataset(path: str | Path) -> PairedDataset:
    """Read a container written by save_dataset; round-trips structurally."""
    tiles_r, grounds_r, assigns_r, prov_r = _container_sections(path)
    tiles = _read_tiles(tiles_r)
    grounds = _read_grounds(grounds_r)
    start = assigns_r.off
    offsets, ground = _read_assignments(assigns_r)
    if len(offsets) - 1 != len(tiles):
        raise assigns_r.fail(f"{len(offsets) - 1} assignment lists for {len(tiles)} tiles", start)
    return PairedDataset(tiles, grounds, offsets, ground, prov_r.json())
