"""Dataset assembly: manifests -> paired ground/satellite records, plus the
synthetic world generator used for desk-scale verification.

Ground images arrive as manifest lines (`id lat lon timestamp embedding_ref`);
satellite coverage arrives as snapshot lines (`region_id timestamp blob_ref`)
whose blob refs resolve to feature-field files describing how raw patch
features are produced anywhere inside a region. Pairing spawns tiles at ground
geotags under a minimum-separation rule, caps grounds per tile, picks the
temporally closest snapshot per tile, and materializes each tile's raw patch
feature grid.

The synthetic world is a Voronoi partition of a small extent into latent
land-cover classes. Patch features are a one-hot of the class at the patch
center plus gaussian noise; ground embeddings are noisy class centroids; text
fixtures map each rendered prompt to the exact class centroid. Everything is
reproducible from (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import frozen, geo
from .codec import FormatError, Reader, Writer
from .geo import GeoPoint, TileSpec
from .frozen import DEFAULT_PROMPTS, FrozenEncoder, PromptSet, save_embeddings, unit

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
    """Pairing got no ground images to spawn tiles at."""


DatasetFormatError = FormatError  # a container failed to parse; names the byte offset


class DatasetVersionError(DatasetFormatError):
    """Container magic or version is not one this code can read."""


@dataclass(frozen=True)
class GroundImageRecord:
    id: str
    geo: GeoPoint
    timestamp: int
    embedding_ref: str


@dataclass(frozen=True)
class SnapshotRecord:
    region_id: str
    timestamp: int
    blob_ref: str


@dataclass(eq=False)
class SatTileRecord:
    id: str
    spec: TileSpec
    timestamp: int
    patch_features: np.ndarray  # (G, G, F) float32
    channels: int = 3

    def __post_init__(self):
        g = self.spec.grid_px
        if self.patch_features.shape[:2] != (g, g):
            raise ValueError(
                f"tile {self.id}: feature grid {self.patch_features.shape} does not "
                f"match {g}x{g} patch layout"
            )
        if not np.all(np.isfinite(self.patch_features)):
            raise ValueError(f"tile {self.id}: non-finite patch features")

    @property
    def feature_dim(self) -> int:
        return self.patch_features.shape[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SatTileRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.spec == other.spec
            and self.timestamp == other.timestamp
            and self.channels == other.channels
            and np.array_equal(self.patch_features, other.patch_features)
        )


@dataclass
class PairBatch:
    """One training batch: tiles plus their (tile, ground) pairs, tile-major.

    Tile i owns `sizes[i]` consecutive entries of the pair arrays.
    """

    tiles: list[SatTileRecord]
    sizes: np.ndarray  # (B,) grounds per tile
    ground: np.ndarray  # (M,) index into the dataset's grounds
    patch: np.ndarray  # (M,) flat patch index (prow * grid_px + pcol) under the geotag

    def __post_init__(self):
        if len(self.tiles) < 1:
            raise ValueError("a batch needs at least one tile")
        if len(self.sizes) != len(self.tiles):
            raise ValueError("one pair count per tile required")
        if np.any(self.sizes < 1):
            raise ValueError(f"tile {int(np.argmin(self.sizes))} has no grounds in batch")
        if not (len(self.ground) == len(self.patch) == int(self.sizes.sum())):
            raise ValueError("ground and patch indices must list every pair once")

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class PairIndex:
    """Every (tile, ground) pair of a dataset as flat arrays, tile-major.

    The pairs of tile t occupy `offsets[t]:offsets[t + 1]`, in assignment order.
    """

    offsets: np.ndarray  # (T + 1,)
    ground: np.ndarray  # (P,) index into the dataset's grounds
    pixel: np.ndarray  # (P, 2) raster (row, col) of the ground's geotag
    patch: np.ndarray  # (P,) flat patch index prow * grid_px + pcol


@dataclass(eq=False)
class PairedDataset:
    tiles: list[SatTileRecord]
    grounds: list[GroundImageRecord]
    assignments: list[list[int]]  # per tile, indices into `grounds`
    provenance: dict
    _pairs: PairIndex | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if len(self.assignments) != len(self.tiles):
            raise ValueError("one assignment list per tile required")

    @property
    def n_pairs(self) -> int:
        return sum(len(a) for a in self.assignments)

    def pair_index(self) -> PairIndex:
        """The packed pair arrays, computed and checked on first use.

        Datasets are read-only after construction, so the pack is kept.
        """
        if self._pairs is None:
            self._pairs = _pack_pairs(self)
        return self._pairs

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairedDataset):
            return NotImplemented
        return (
            self.tiles == other.tiles
            and self.grounds == other.grounds
            and self.assignments == other.assignments
            and self.provenance == other.provenance
        )


def _pack_pairs(ds: PairedDataset) -> PairIndex:
    """Vectorized geotag -> pixel -> patch mapping of every pair, with bounds checks.

    Offsets come from `geo.footprint_offsets` and the pixel floor is
    `geo.geotag_to_pixel`'s, so pixels are bit-identical to the scalar path.
    Raises IntegrityError, naming the tile, for an assignment index out of
    range, a geotag outside the tile footprint or a pixel outside the patch grid.
    """
    counts = np.array([len(a) for a in ds.assignments], dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    def fail(pair: int, what: str):
        tile = ds.tiles[int(np.searchsorted(offsets, pair, side="right")) - 1]
        raise IntegrityError(f"tile {tile.id}: {what}")

    ground = np.fromiter(
        (m for members in ds.assignments for m in members), dtype=np.int64, count=offsets[-1]
    )
    bad = (ground < 0) | (ground >= len(ds.grounds))
    if bad.any():
        k = int(np.argmax(bad))
        fail(k, f"assignment index {ground[k]} out of range")

    def by_pair(rows, width, dtype):  # tile rows of `width` fields -> one array per field
        return np.repeat(np.array(rows, dtype=dtype).reshape(-1, width), counts, axis=0).T

    specs = [t.spec for t in ds.tiles]
    center_lat, center_lon, lon_scale, res, half = by_pair(
        [(s.center.lat, s.center.lon, math.cos(math.radians(s.center.lat)),
          s.resolution_m_per_px, s.half_extent_m) for s in specs], 5, np.float64)
    size, patch_px, grid = by_pair([(s.size_px, s.patch_px, s.grid_px) for s in specs], 3, np.int64)
    lat = np.array([g.geo.lat for g in ds.grounds])[ground]
    lon = np.array([g.geo.lon for g in ds.grounds])[ground]

    north, east, inside = geo.footprint_offsets(lat, lon, center_lat, center_lon, lon_scale, half)
    outside = ~inside
    if outside.any():
        k = int(np.argmax(outside))
        fail(k, f"ground {ground[k]} at ({lat[k]}, {lon[k]}) lies outside the footprint: "
                f"offset ({north[k]:.1f} m N, {east[k]:.1f} m E), half extent {half[k]:.1f} m")
    row = np.floor(size / 2 - north / res).astype(np.int64)
    col = np.floor(size / 2 + east / res).astype(np.int64)
    prow, pcol = row // patch_px, col // patch_px
    off_grid = (row < 0) | (col < 0) | (prow >= grid) | (pcol >= grid)
    if off_grid.any():
        k = int(np.argmax(off_grid))
        fail(k, f"pixel ({row[k]}, {col[k]}) maps outside patch grid")
    return PairIndex(offsets=offsets, ground=ground, pixel=np.stack([row, col], axis=1),
                     patch=prow * grid + pcol)


def parse_ground_manifest(path: str | Path) -> list[GroundImageRecord]:
    """Parse `id lat lon timestamp embedding_ref` lines; ids must be unique."""
    records: list[GroundImageRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ManifestError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        rid, lat_s, lon_s, ts_s, ref = parts
        if rid in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate ground id {rid!r}")
        seen.add(rid)
        try:
            point = GeoPoint(float(lat_s), float(lon_s))
            ts = int(ts_s)
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from exc
        records.append(GroundImageRecord(rid, point, ts, ref))
    return records


def parse_snapshot_manifest(path: str | Path) -> list[SnapshotRecord]:
    """Parse `region_id timestamp blob_ref` lines."""
    records: list[SnapshotRecord] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ManifestError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        region, ts_s, ref = parts
        try:
            ts = int(ts_s)
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from exc
        records.append(SnapshotRecord(region, ts, ref))
    return records


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
        if len(self.class_names) != self.seeds_lat.shape[0]:
            raise ValueError("one seed point per class required")
        if self.feature_dim < len(self.class_names):
            raise ValueError("feature_dim must be >= number of classes")

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

    def class_grid(self, tile: TileSpec) -> np.ndarray:
        """(G, G) ground-truth class index at each patch center."""
        return class_grids(self, [tile])[0]

    def materialize(self, tile: TileSpec, snapshot_ts: int) -> np.ndarray:
        """(G, G, F) float32 raw features for the tile under one snapshot."""
        return materialize_many(self, [tile], [snapshot_ts])[0]


# Tiles per float64 block of class_grids and materialize_many; only their
# results span every tile. A block of 64 tiles of 196 patches and 16 features
# is 1.6 MB of float64.
FIELD_BLOCK_TILES = 64


def class_grids(fld: VoronoiFeatureField, specs: Sequence[TileSpec]) -> np.ndarray:
    """(N, G, G) ground-truth class index at each patch center of N tiles.

    Each tile's longitude scale is its own scalar `math.cos`, so its classes
    come from the same patch-center coordinates, bit for bit, as the tile's alone;
    squared seed distances are summed per block from one per patch column and row.
    """
    g = specs[0].grid_px
    if any(s.grid_px != g for s in specs):
        raise ValueError("tiles of one call must share a patch grid size")
    patch_px, half, res, lat0, lon0, lon_scale = np.array(
        [(s.patch_px, s.size_px / 2, s.resolution_m_per_px, s.center.lat, s.center.lon,
          geo.METERS_PER_DEGREE * math.cos(math.radians(s.center.lat))) for s in specs]
    ).T[..., None]
    # (N, G) offsets of the patch-center rows; those of the columns are their negation
    north = (half - (np.arange(g) + 0.5) * patch_px) * res
    x, y = fld._project(lat0 + north / geo.METERS_PER_DEGREE, lon0 - north / lon_scale)
    sx, sy = fld._project(fld.seeds_lat, fld.seeds_lon)
    dx2, dy2 = (x[..., None] - sx) ** 2, (y[..., None] - sy) ** 2  # (N, G, K) columns, rows
    blocks = (slice(i, i + FIELD_BLOCK_TILES) for i in range(0, len(specs), FIELD_BLOCK_TILES))
    return np.concatenate([np.argmin(dx2[b, None] + dy2[b, :, None], axis=-1) for b in blocks])


def materialize_many(
    fld: VoronoiFeatureField, specs: Sequence[TileSpec], timestamps: Sequence[int]
) -> np.ndarray:
    """(N, G, G, F) float32 raw features of N tiles, tile i under snapshot `timestamps[i]`.

    Each tile draws its noise from its own stream, keyed by (noise_key,
    snapshot timestamp, quantized tile center), so its features equal, bit
    for bit, those of the tile materialized alone.
    """
    if len(timestamps) != len(specs):
        raise ValueError(f"{len(timestamps)} timestamps for {len(specs)} tiles")
    g = specs[0].grid_px
    features = np.empty((len(specs), g, g, fld.feature_dim), dtype=np.float32)
    for start in range(0, len(specs), FIELD_BLOCK_TILES):
        labels = class_grids(fld, specs[start : start + FIELD_BLOCK_TILES])
        block = np.zeros(labels.shape + (fld.feature_dim,))
        np.put_along_axis(block, labels[..., None], 1.0, axis=-1)
        if fld.noise_sigma > 0:
            for i in range(start, start + len(block)):
                c = specs[i].center
                key = [fld.noise_key, int(timestamps[i]), int(round((c.lat + 90.0) * 1e7)),
                       int(round((c.lon + 180.0) * 1e7))]
                rng = np.random.default_rng(np.random.SeedSequence(key))
                block[i - start] += fld.noise_sigma * rng.standard_normal(block.shape[1:])
        features[start : start + len(block)] = block
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


# Keys of a field.json payload and how each is read.
_FIELD_KEYS = {
    "class_names": list,
    "seeds_lat": np.array,
    "seeds_lon": np.array,
    "origin": lambda v: GeoPoint(*v),
    "bounds": tuple,
    "feature_dim": int,
    "noise_sigma": float,
    "noise_key": int,
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


def build_pairs(
    grounds: Sequence[GroundImageRecord],
    snapshots: Sequence[SnapshotRecord],
    spec: TileSpec,
    cap: int = 25,
    min_sep_px: int = 112,
    seed: int = 0,
    *,
    fields: Mapping[str, VoronoiFeatureField],
    embeddings: FrozenEncoder | None = None,
    channels: int = 3,
) -> PairedDataset:
    """Pair ground images with freshly sampled satellite tiles.

    Tiles spawn at ground geotags under the minimum-separation rule, each keeps
    at most `cap` grounds (seeded uniform subsample), and each picks the
    snapshot temporally closest to the mean timestamp of its grounds. Tile
    features come from the snapshot's feature field.
    """
    if not grounds:
        raise EmptyDatasetError("ground manifest is empty")
    if not snapshots:
        raise IntegrityError("snapshot manifest is empty")
    missing_blobs = sorted({s.blob_ref for s in snapshots} - set(fields))
    if missing_blobs:
        raise IntegrityError(f"unresolvable feature blob refs: {missing_blobs}")
    if embeddings is not None:
        bad = [g.id for g in grounds if g.embedding_ref not in embeddings.table]
        if bad:
            raise IntegrityError(
                f"{len(bad)} ground records with unresolvable embedding_ref: "
                f"{bad[:10]}{'...' if len(bad) > 10 else ''}"
            )

    points = [g.geo for g in grounds]
    tile_specs, assignment = geo.sample_tiles(points, spec, min_sep_px)
    cap_seed = int(np.random.SeedSequence([seed, _SALT_CAP]).generate_state(1)[0])
    assignment = geo.cap_subsample(assignment, cap=cap, seed=cap_seed)

    # no tile is empty: each keeps at least the ground at its center
    lat, lon = np.array([(s.center.lat, s.center.lon) for s in tile_specs]).T
    cover = np.array([fields[s.blob_ref].contains(lat, lon) for s in snapshots])  # (S, T)
    if not cover.any(axis=0).all():
        c = tile_specs[int(np.argmin(cover.any(axis=0)))].center
        raise IntegrityError(f"no snapshot region covers tile at ({c.lat:.5f}, {c.lon:.5f})")
    # mean ground timestamp per tile: sums of <= cap timestamps are exact, as in np.mean
    sizes = np.array([len(members) for members in assignment])
    ts = np.array([grounds[m].timestamp for members in assignment for m in members])
    target = np.rint(np.add.reduceat(ts, np.cumsum(sizes) - sizes) / sizes).astype(np.int64)
    snaps = [snapshots[k] for k in select_snapshot([s.timestamp for s in snapshots], target, cover)]

    # one blocked materialization per feature field
    features = [None] * len(tile_specs)
    for ref in dict.fromkeys(s.blob_ref for s in snaps):
        idx = [i for i, s in enumerate(snaps) if s.blob_ref == ref]
        grids = materialize_many(fields[ref], [tile_specs[i] for i in idx],
                                 [snaps[i].timestamp for i in idx])
        for i, grid in zip(idx, grids):
            features[i] = grid
    tiles = [
        SatTileRecord(id=f"t{i:06d}", spec=tspec, timestamp=snap.timestamp,
                      patch_features=grid, channels=channels)
        for i, (tspec, snap, grid) in enumerate(zip(tile_specs, snaps, features))
    ]
    provenance = {
        "seed": seed,
        "cap": cap,
        "min_sep_px": min_sep_px,
        "tile": {
            "resolution_m_per_px": spec.resolution_m_per_px,
            "size_px": spec.size_px,
            "patch_px": spec.patch_px,
        },
        "n_tiles": len(tiles),
        "n_grounds": len(grounds),
        "n_pairs": sum(len(a) for a in assignment),
    }
    return PairedDataset(
        tiles=tiles, grounds=list(grounds), assignments=assignment, provenance=provenance
    )


def validate_dataset(ds: PairedDataset) -> None:
    """Referential integrity plus in-bounds pixel mapping for every pair."""
    ds.pair_index()


def subset_tiles(ds: PairedDataset, indices: Sequence[int]) -> PairedDataset:
    """A dataset restricted to the given tile indices (ground list is shared)."""
    tiles = [ds.tiles[i] for i in indices]
    assignments = [list(ds.assignments[i]) for i in indices]
    provenance = dict(ds.provenance)
    provenance["subset_of"] = provenance.get("n_tiles", len(ds.tiles))
    provenance["n_tiles"] = len(tiles)
    provenance["n_pairs"] = sum(len(a) for a in assignments)
    return PairedDataset(tiles=tiles, grounds=ds.grounds, assignments=assignments,
                         provenance=provenance)


def make_batches(ds: PairedDataset, batch_size: int, seed: int = 0) -> list[PairBatch]:
    """One epoch of batches: seeded tile permutation, chunks of `batch_size`.

    A final short chunk is kept only if it still has at least two tiles; a
    lone leftover tile cannot contrast against anything and is dropped.
    Pair indices come from the dataset's pack, so no geotag is mapped twice.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    pairs = ds.pair_index()
    counts = np.diff(pairs.offsets)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds.tiles))
    batches: list[PairBatch] = []
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        if len(chunk) < batch_size and len(chunk) < 2:
            break
        sizes = counts[chunk]
        # positions of the chunk's CSR segments, concatenated in chunk order
        rows = np.arange(sizes.sum()) + np.repeat(
            pairs.offsets[chunk] - (np.cumsum(sizes) - sizes), sizes
        )
        batches.append(PairBatch(tiles=[ds.tiles[i] for i in chunk], sizes=sizes,
                                 ground=pairs.ground[rows], patch=pairs.patch[rows]))
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
    channels: int = 3
    center_lat: float = 43.0
    center_lon: float = -76.0
    prompts: tuple[str, ...] = DEFAULT_PROMPTS

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.embed_dim < self.n_classes or self.feature_dim < self.n_classes:
            raise ValueError("embed_dim and feature_dim must be >= n_classes")
        if self.extent_km <= 0:
            raise ValueError(f"degenerate extent {self.extent_km} km")
        half_deg = self.extent_km * 1000.0 / 2.0 / geo.METERS_PER_DEGREE
        if not -90.0 <= self.center_lat - half_deg <= self.center_lat + half_deg <= 90.0:
            raise ValueError(f"a {self.extent_km} km extent at latitude {self.center_lat} "
                             f"crosses a pole")
        if self.n_ground < 1 or self.n_snapshots < 1:
            raise ValueError("need at least one ground image and one snapshot")


@dataclass
class SynthWorld:
    config: SynthWorldConfig
    seed: int
    field: VoronoiFeatureField
    grounds: list[GroundImageRecord]
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
        lines = [
            f"{g.id} {g.geo.lat!r} {g.geo.lon!r} {g.timestamp} {g.embedding_ref}"
            for g in self.grounds
        ]
        paths["ground_manifest"].write_text("\n".join(lines) + "\n")
        lines = [f"{s.region_id} {s.timestamp} {s.blob_ref}" for s in self.snapshots]
        paths["snapshot_manifest"].write_text("\n".join(lines) + "\n")
        save_feature_field(self.field, paths["field"])
        save_embeddings(paths["ground_embeddings"], self.ground_encoder.table)
        save_embeddings(paths["text_embeddings"], self.text_encoder.table)
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
    half_m = cfg.extent_km * 1000.0 / 2.0
    dlat = half_m / geo.METERS_PER_DEGREE
    dlon = half_m / (geo.METERS_PER_DEGREE * math.cos(math.radians(center.lat)))
    bounds = (center.lat - dlat, center.lat + dlat, center.lon - dlon, center.lon + dlon)

    # Class seeds: uniform draws, re-drawn (bounded) until the induced cell
    # areas are balanced, so no class collapses into a sliver. A plain single
    # draw routinely produces 5x area spreads, which would break the 3x bound
    # on empirical class frequencies that downstream checks rely on.
    rng_seeds = np.random.default_rng(np.random.SeedSequence([seed, _SALT_CLASS_SEEDS]))
    raster = 48
    grid_lat = np.linspace(bounds[0], bounds[1], raster)
    grid_lon = np.linspace(bounds[2], bounds[3], raster)
    glat, glon = np.meshgrid(grid_lat, grid_lon, indexing="ij")
    cos0 = math.cos(math.radians(center.lat))
    gx = (glon.ravel() - center.lon) * geo.METERS_PER_DEGREE * cos0
    gy = (glat.ravel() - center.lat) * geo.METERS_PER_DEGREE
    best = None
    best_ratio = math.inf
    for _ in range(500):
        lat_cand = rng_seeds.uniform(bounds[0], bounds[1], size=k)
        lon_cand = rng_seeds.uniform(bounds[2], bounds[3], size=k)
        sx = (lon_cand - center.lon) * geo.METERS_PER_DEGREE * cos0
        sy = (lat_cand - center.lat) * geo.METERS_PER_DEGREE
        d2 = (gx[:, None] - sx) ** 2 + (gy[:, None] - sy) ** 2
        counts = np.bincount(np.argmin(d2, axis=1), minlength=k)
        ratio = math.inf if counts.min() == 0 else counts.max() / counts.min()
        if ratio < best_ratio:
            best, best_ratio = (lat_cand, lon_cand), ratio
        if ratio <= 2.2:
            break
    seeds_lat, seeds_lon = best

    names = list(DEFAULT_CLASS_NAMES[:k])
    names += [f"landcover{i}" for i in range(len(names), k)]
    noise_key = int(np.random.SeedSequence([seed, _SALT_FIELD_NOISE]).generate_state(1)[0])
    fld = VoronoiFeatureField(
        class_names=names,
        seeds_lat=seeds_lat,
        seeds_lon=seeds_lon,
        origin=center,
        bounds=bounds,
        feature_dim=cfg.feature_dim,
        noise_sigma=cfg.noise_sigma,
        noise_key=noise_key,
    )

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
    grounds: list[GroundImageRecord] = []
    ground_table: dict[str, np.ndarray] = {}
    for i in range(cfg.n_ground):
        gid = f"g{i:06d}"
        vec = centroids[labels[i]].copy()
        if cfg.noise_sigma > 0:
            vec = vec + cfg.noise_sigma * rng_emb.standard_normal(cfg.embed_dim)
        ground_table[gid] = unit(vec)
        grounds.append(
            GroundImageRecord(gid, GeoPoint(lat_g[i], lon_g[i]), int(timestamps[i]), gid)
        )

    prompt_set = PromptSet(cfg.prompts)
    text_table: dict[str, np.ndarray] = {}
    for ci, name in enumerate(names):
        for rendered in prompt_set.render(name):
            text_table[rendered] = centroids[ci].copy()

    return SynthWorld(
        config=cfg,
        seed=seed,
        field=fld,
        grounds=grounds,
        snapshots=snapshots,
        ground_encoder=FrozenEncoder.from_vectors(ground_table),
        text_encoder=FrozenEncoder.from_vectors(text_table),
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
    def grounds(self) -> list[GroundImageRecord]:
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


_TILE_HEADER = "<dddIIqIIII"  # lat, lon, m/px, size_px, patch_px, timestamp, channels, G, G, F


def save_dataset(ds: PairedDataset, path: str | Path) -> None:
    """Write the versioned binary container: magic, version, four sections."""
    tiles = Writer()
    tiles.pack("<I", len(ds.tiles))
    for t in ds.tiles:
        spec = t.spec
        tiles.string(t.id)
        tiles.pack(_TILE_HEADER, spec.center.lat, spec.center.lon, spec.resolution_m_per_px,
                   spec.size_px, spec.patch_px, t.timestamp, t.channels, *t.patch_features.shape)
        tiles.array(t.patch_features, "<f4")

    grounds = Writer()
    grounds.pack("<I", len(ds.grounds))
    for g in ds.grounds:
        grounds.string(g.id)
        grounds.pack("<ddq", g.geo.lat, g.geo.lon, g.timestamp)
        grounds.string(g.embedding_ref)

    assigns = Writer()
    assigns.pack("<I", len(ds.assignments))
    for members in ds.assignments:
        assigns.pack(f"<I{len(members)}I", len(members), *members)

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
    r = Reader(Path(path).read_bytes(), f"container {path}")
    r.header(CONTAINER_MAGIC, CONTAINER_VERSION, DatasetVersionError)
    sections = tuple(r.section() for _ in range(4))
    r.done()
    return sections


def _read_tiles(tiles_r: Reader) -> list[SatTileRecord]:
    tiles: list[SatTileRecord] = []
    for _ in range(tiles_r.unpack("<I")[0]):
        start = tiles_r.off
        tid = tiles_r.string()
        lat, lon, res, size_px, patch_px, ts, channels, *grid = tiles_r.unpack(_TILE_HEADER)
        features = tiles_r.array("<f4", tuple(grid))
        try:
            spec = TileSpec(GeoPoint(lat, lon), res, size_px, patch_px)
            tiles.append(SatTileRecord(tid, spec, ts, features, channels))
        except ValueError as exc:
            raise tiles_r.fail(f"invalid tile record ({exc})", start) from exc
    tiles_r.done()
    return tiles


def load_tiles(path: str | Path) -> list[SatTileRecord]:
    """The tiles of a container; its frames are checked as by load_dataset, but
    only the tile section is decoded."""
    return _read_tiles(_container_sections(path)[0])


def load_dataset(path: str | Path) -> PairedDataset:
    """Read a container written by save_dataset; round-trips structurally."""
    tiles_r, grounds_r, assigns_r, prov_r = _container_sections(path)
    tiles = _read_tiles(tiles_r)

    grounds: list[GroundImageRecord] = []
    for _ in range(grounds_r.unpack("<I")[0]):
        start = grounds_r.off
        gid = grounds_r.string()
        lat, lon, ts = grounds_r.unpack("<ddq")
        ref = grounds_r.string()
        try:
            grounds.append(GroundImageRecord(gid, GeoPoint(lat, lon), ts, ref))
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

    return PairedDataset(tiles=tiles, grounds=grounds, assignments=assignments,
                         provenance=prov_r.json())
