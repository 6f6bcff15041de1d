from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (class_at, class_centroids, class_grid_per_tile, class_grids_argmin,
                      class_grids_broadcast, geotag_to_pixel, ground_rows, ground_table,
                      materialize_many_put, materialize_per_tile, pair_lists, pixel_to_patch,
                      select_snapshot_scan, subset_tiles, take_tiles, tile_contains,
                      with_tile_pairs)
from graft import corpus, geo
from graft.codec import FormatError
from graft.corpus import (
    EmptyDatasetError,
    IntegrityError,
    ManifestError,
    SnapshotRecord,
    SynthWorldConfig,
    VoronoiFeatureField,
    build_pairs,
    load_dataset,
    load_feature_field,
    make_batches,
    parse_ground_manifest,
    parse_snapshot_manifest,
    save_dataset,
    save_feature_field,
    select_snapshot,
    synth_world,
)
from graft.geo import GeoPoint, TileSpec


def test_pair_index_of_a_dataset_without_tiles(small_dataset):
    ds = corpus.PairedDataset(tiles=take_tiles(small_dataset.tiles, []), grounds=ground_table([]),
                              offsets=np.zeros(1, np.int64), ground=np.empty(0, np.int64),
                              provenance={})
    pairs = ds.pair_index()
    assert pairs.patch.shape == (0,) and pairs.pixel.shape == (0, 2)
    assert make_batches(ds, 4) == []


def test_select_snapshot_singleton():
    assert select_snapshot([100], 999) == 0


def test_select_snapshot_closest():
    assert select_snapshot([100, 200], 160) == 1


def test_select_snapshot_tie_prefers_earlier():
    assert select_snapshot([100, 200], 150) == 0
    assert select_snapshot([200, 100], 150) == 1  # earlier timestamp, later index


def test_select_snapshot_empty():
    with pytest.raises(ValueError):
        select_snapshot([], 5)


@settings(max_examples=60, deadline=None)
@given(
    ts=st.lists(st.integers(0, 20), min_size=1, max_size=8),
    targets=st.lists(st.integers(-5, 25), min_size=1, max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_snapshot_many_matches_scan(ts, targets, seed):
    # few distinct timestamps, so equal gaps and equal timestamps tie often
    rng = np.random.default_rng(seed)
    usable = rng.random((len(ts), len(targets))) < 0.5
    usable[rng.integers(len(ts), size=len(targets)), np.arange(len(targets))] = True
    got = select_snapshot(ts, np.array(targets), usable)
    for t, target in enumerate(targets):
        idx = np.flatnonzero(usable[:, t])
        assert got[t] == idx[select_snapshot_scan([ts[i] for i in idx], target)]
        assert select_snapshot(ts, target) == select_snapshot_scan(ts, target)


def test_ground_manifest_roundtrip(tmp_path):
    path = tmp_path / "ground.txt"
    path.write_text(
        "# comment line\n"
        "g0 41.5 -73.25 1700000000 ref0\n"
        "\n"
        "g1 -10.125 150.0 1700000500 ref1\n"
    )
    grounds = parse_ground_manifest(path)
    assert ground_rows(grounds) == [
        ("g0", 41.5, -73.25, 1700000000, "ref0"),
        ("g1", -10.125, 150.0, 1700000500, "ref1"),
    ]
    assert grounds.timestamp.dtype == np.int64


def test_ground_manifest_errors(tmp_path):
    path = tmp_path / "ground.txt"
    path.write_text("g0 41.5 -73.25 1700000000\n")
    with pytest.raises(ManifestError, match=":1"):
        parse_ground_manifest(path)
    path.write_text("g0 badlat -73.25 1700000000 r\n")
    with pytest.raises(ManifestError):
        parse_ground_manifest(path)
    path.write_text("g0 0 0 1 r\ng0 0 0 2 r\n")
    with pytest.raises(ManifestError, match="duplicate"):
        parse_ground_manifest(path)


def test_snapshot_manifest_roundtrip(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("world 1700000000 field.json\nworld 1700864000 field.json\n")
    assert parse_snapshot_manifest(path) == [
        SnapshotRecord("world", 1700000000, "field.json"),
        SnapshotRecord("world", 1700864000, "field.json"),
    ]
    path.write_text("only two\n")
    with pytest.raises(ManifestError):
        parse_snapshot_manifest(path)


MANIFEST_LINES = {
    parse_ground_manifest: ("g0 41.5 -73.25 1700000000 r0", "g1 41.5 -73.25 {ts} r1"),
    parse_snapshot_manifest: ("world 1700000000 field.json", "world {ts} field.json"),
}


@pytest.mark.parametrize("parse", MANIFEST_LINES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("ts", [-1, 2**62 + 1, 2**63, -(2**63) - 1, 2**70])
def test_manifest_timestamp_outside_domain(tmp_path, parse, ts):
    path = tmp_path / "manifest.txt"
    good, bad = MANIFEST_LINES[parse]
    path.write_text(f"# header\n{good}\n{bad.format(ts=ts)}\n")
    with pytest.raises(ManifestError,
                       match=rf"manifest.txt:3: timestamp {ts} outside \[0, 2\*\*62\]"):
        parse(path)
    for edge in (0, 2**62):
        path.write_text(bad.format(ts=edge) + "\n")
        got = parse(path)
        stamps = [s.timestamp for s in got] if isinstance(got, list) else got.timestamp.tolist()
        assert stamps == [edge]


@pytest.mark.parametrize("parse", MANIFEST_LINES, ids=lambda f: f.__name__)
def test_manifest_not_utf8(tmp_path, parse):
    path = tmp_path / "manifest.txt"
    good, _ = MANIFEST_LINES[parse]
    path.write_bytes(f"{good}\n\n".encode() + b"\xff\xfe\n")
    with pytest.raises(ManifestError, match="manifest.txt:3: not UTF-8"):
        parse(path)
    path.write_bytes(f"{good} \xe9".encode("latin-1"))
    with pytest.raises(ManifestError, match="manifest.txt:1: not UTF-8"):
        parse(path)


@pytest.fixture(scope="module")
def noiseless_world():
    cfg = SynthWorldConfig(
        n_classes=4, embed_dim=8, feature_dim=8, extent_km=2.0, n_ground=30,
        noise_sigma=0.0, center_lat=45.0, center_lon=9.0,
    )
    return synth_world(cfg, seed=11)


def test_build_pairs_single_ground(noiseless_world):
    world = noiseless_world
    g = ground_rows(world.grounds)[0]
    spec = TileSpec()
    ds = build_pairs(
        ground_table([g]), world.snapshots[:1], spec, fields={"field.json": world.field},
        embeddings=world.ground_encoder,
    )
    assert len(ds.tiles) == 1
    assert pair_lists(ds.offsets, ds.ground) == [[0]]
    assert (ds.tiles.lat[0], ds.tiles.lon[0]) == g[1:3]
    assert ds.tiles.timestamp[0] == world.snapshots[0].timestamp
    assert ds.tiles.ids == ["t000000"]


def test_build_pairs_two_close_grounds(noiseless_world):
    world = noiseless_world
    gid, lat, lon, ts, _ = base = ground_rows(world.grounds)[0]
    shifted = ("other", lat + 50.0 / geo.METERS_PER_DEGREE, lon, ts, world.grounds.refs[1])
    spec = TileSpec()
    ds = build_pairs(
        ground_table([base, shifted]), world.snapshots, spec,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    assert len(ds.tiles) == 1
    assert pair_lists(ds.offsets, ds.ground) == [[0, 1]]
    assert ds.n_pairs == 2


def test_build_pairs_mean_timestamp_at_top_of_domain(noiseless_world):
    # three timestamps of 2**62 sum past int64; the tile's mean is still 2**62
    world = noiseless_world
    _, lat, lon, _, ref = ground_rows(world.grounds)[0]
    grounds = ground_table([(f"g{i}", lat, lon, 2**62, ref) for i in range(3)])
    snaps = [SnapshotRecord("world", ts, "field.json") for ts in (0, 2**62)]
    ds = build_pairs(grounds, snaps, TileSpec(), fields={"field.json": world.field})
    assert pair_lists(ds.offsets, ds.ground) == [[0, 1, 2]]
    assert ds.tiles.timestamp.tolist() == [2**62]


def test_build_pairs_missing_embedding_refs(noiseless_world):
    world = noiseless_world
    _, lat, lon, _, ref = ground_rows(world.grounds)[0]
    bad = ground_table([("fine", lat, lon, 0, ref), ("weird", lat, lon, 0, "no-such-ref")])
    spec = TileSpec()
    with pytest.raises(IntegrityError, match=r"1 ground records .*: \['weird'\]"):
        build_pairs(
            bad, world.snapshots, spec,
            fields={"field.json": world.field}, embeddings=world.ground_encoder,
        )


def test_build_pairs_empty_inputs(noiseless_world):
    world = noiseless_world
    spec = TileSpec()
    with pytest.raises(EmptyDatasetError):
        build_pairs(ground_table([]), world.snapshots, spec, fields={"field.json": world.field})
    with pytest.raises(IntegrityError):
        build_pairs(world.grounds, [], spec, fields={})


def test_build_pairs_no_covering_snapshot(noiseless_world):
    world = noiseless_world
    far = ground_table([("far", 10.0, 10.0, 0, world.grounds.refs[0])])
    spec = TileSpec()
    with pytest.raises(IntegrityError, match="covers"):
        build_pairs(
            far, world.snapshots, spec,
            fields={"field.json": world.field}, embeddings=world.ground_encoder,
        )


def test_build_pairs_two_feature_fields(noiseless_world):
    # tiles pick one of two snapshots, each with its own field: every tile's
    # features are its own snapshot field's, in tile order
    world = noiseless_world
    noisy = dataclasses.replace(world.field, noise_sigma=0.5)
    first, last = world.snapshots[0].timestamp, world.snapshots[-1].timestamp
    snaps = [SnapshotRecord("world", first, "a.json"), SnapshotRecord("world", last, "b.json")]
    ds = build_pairs(world.grounds, snaps, TileSpec(), fields={"a.json": world.field,
                                                               "b.json": noisy})
    assert set(ds.tiles.timestamp.tolist()) == {first, last}
    for i, ts in enumerate(ds.tiles.timestamp.tolist()):
        fld = world.field if ts == first else noisy
        center = GeoPoint(ds.tiles.lat[i], ds.tiles.lon[i])
        np.testing.assert_array_equal(ds.tiles.features[i], fld.materialize(TileSpec(), center, ts))
    wide = dataclasses.replace(world.field, feature_dim=world.field.feature_dim + 1)
    with pytest.raises(IntegrityError, match=r"differ in feature_dim: \[8, 9\]"):
        build_pairs(world.grounds, snaps, TileSpec(), fields={"a.json": world.field,
                                                              "b.json": wide})


def test_build_pairs_validates(small_dataset):
    small_dataset.pair_index()
    assert small_dataset.provenance["n_tiles"] == len(small_dataset.tiles)
    assert np.diff(small_dataset.offsets).max() <= 25


def test_build_pairs_picks_temporally_closest_snapshot(noiseless_world):
    world = noiseless_world
    _, lat, lon, _, ref = ground_rows(world.grounds)[0]
    g = ground_table([("g", lat, lon, world.snapshots[1].timestamp + 3, ref)])
    spec = TileSpec()
    ds = build_pairs(
        g, world.snapshots, spec,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    assert ds.tiles.timestamp[0] == world.snapshots[1].timestamp


def test_make_batches_even_split(small_dataset):
    ds = subset_tiles(small_dataset, range(10))
    batches = make_batches(ds, 5, seed=0)
    assert [b.n_tiles for b in batches] == [5, 5]
    seen = [ds.tiles.ids[i] for b in batches for i in b.tiles]
    assert sorted(seen) == sorted(ds.tiles.ids)
    for b in batches:
        np.testing.assert_array_equal(b.features, ds.tiles.features[b.tiles])


def test_make_batches_drops_lone_final_tile(small_dataset):
    ds = subset_tiles(small_dataset, range(11))
    batches = make_batches(ds, 5, seed=1)
    assert [b.n_tiles for b in batches] == [5, 5]
    ds = subset_tiles(small_dataset, range(12))
    batches = make_batches(ds, 5, seed=1)
    assert [b.n_tiles for b in batches] == [5, 5, 2]


def test_make_batches_deterministic(small_dataset):
    a = make_batches(small_dataset, 7, seed=9)
    b = make_batches(small_dataset, 7, seed=9)
    assert [batch.tiles.tolist() for batch in a] == [batch.tiles.tolist() for batch in b]


def test_make_batches_epoch_coverage(small_dataset):
    batches = make_batches(small_dataset, 8, seed=4)
    ids = [i for b in batches for i in b.tiles.tolist()]
    retained = len(small_dataset.tiles) - (
        1 if len(small_dataset.tiles) % 8 == 1 else 0
    )
    assert len(ids) == len(set(ids))
    assert len(ids) >= retained - 7  # only the final short chunk may be dropped


def test_pair_index_matches_scalar_geometry(small_dataset):
    ds = small_dataset
    pairs = ds.pair_index()
    k = 0
    spec = ds.tiles.spec
    for t, members in enumerate(pair_lists(ds.offsets, ds.ground)):
        assert (ds.offsets[t], ds.offsets[t + 1]) == (k, k + len(members))
        center = GeoPoint(ds.tiles.lat[t], ds.tiles.lon[t])
        for m in members:
            px = geotag_to_pixel(spec, center, GeoPoint(ds.grounds.lat[m], ds.grounds.lon[m]))
            patch = pixel_to_patch(px, spec.patch_px)
            assert ds.ground[k] == m
            assert (pairs.pixel[k, 0], pairs.pixel[k, 1]) == (px.row, px.col)
            assert pairs.patch[k] == patch.prow * spec.grid_px + patch.pcol
            k += 1
    assert k == len(pairs.patch) == ds.n_pairs


def test_make_batches_gathers_each_tiles_pairs(small_dataset):
    ds = small_dataset
    pairs = ds.pair_index()
    for batch in make_batches(ds, 7, seed=5):
        segments = [range(ds.offsets[t], ds.offsets[t + 1]) for t in batch.tiles]
        assert list(batch.sizes) == [len(s) for s in segments]
        rows = [r for s in segments for r in s]
        np.testing.assert_array_equal(batch.ground, ds.ground[rows])
        np.testing.assert_array_equal(batch.patch, pairs.patch[rows])


def test_pair_index_rejects_bad_assignments(small_dataset):
    ds = subset_tiles(small_dataset, [0, 1])
    ds = with_tile_pairs(ds, 1, [*ds.ground[ds.offsets[1] :], 10**6])
    with pytest.raises(IntegrityError, match=f"tile {ds.tiles.ids[1]}: assignment index 1000000"):
        make_batches(ds, 2)

    ds = subset_tiles(small_dataset, [0, 1])
    center = GeoPoint(ds.tiles.lat[1], ds.tiles.lon[1])
    outside = next(i for i, (lat, lon) in enumerate(zip(ds.grounds.lat, ds.grounds.lon))
                   if not tile_contains(ds.tiles.spec, center, GeoPoint(lat, lon)))
    ds = with_tile_pairs(ds, 1, [*ds.ground[ds.offsets[1] :], outside])
    with pytest.raises(IntegrityError,
                       match=f"tile {ds.tiles.ids[1]}: ground {outside} .* outside"):
        ds.pair_index()


def test_make_batches_pixels_in_bounds(small_dataset):
    pixel = small_dataset.pair_index().pixel
    assert np.all((0 <= pixel) & (pixel < 224))
    for batch in make_batches(small_dataset, 16, seed=2):
        tile_of_pair = np.repeat(np.arange(batch.n_tiles), batch.sizes)
        for k, patch in zip(tile_of_pair, batch.patch):
            assert 0 <= patch < small_dataset.tiles.spec.grid_px ** 2


def test_synth_world_noiseless_embeddings_exact(noiseless_world):
    world = noiseless_world
    centroids = class_centroids(world)
    enc = world.ground_encoder
    for _, lat, lon, _, ref in ground_rows(world.grounds)[:10]:
        label = class_at(world.field, GeoPoint(lat, lon))
        np.testing.assert_array_equal(enc.vectors[enc.index[ref]], centroids[label])


def test_synth_world_bit_identical_for_seed():
    cfg = SynthWorldConfig(extent_km=3.0, n_ground=50)
    w1 = synth_world(cfg, seed=21)
    w2 = synth_world(cfg, seed=21)
    assert w1.ground_encoder.content_hash() == w2.ground_encoder.content_hash()
    assert w1.grounds == w2.grounds
    assert w1.snapshots == w2.snapshots
    center = GeoPoint(cfg.center_lat, cfg.center_lon)
    np.testing.assert_array_equal(
        w1.field.materialize(TileSpec(), center, w1.snapshots[0].timestamp),
        w2.field.materialize(TileSpec(), center, w2.snapshots[0].timestamp),
    )
    w3 = synth_world(cfg, seed=22)
    assert w3.ground_encoder.content_hash() != w1.ground_encoder.content_hash()


def test_synth_world_spans_its_config_bounds():
    # the bounds that the antimeridian check reads are the field's, longitude wrapped
    cfg = SynthWorldConfig(extent_km=2.0, n_ground=50, center_lon=180.02)
    assert synth_world(cfg, seed=0).field.bounds == cfg.bounds
    assert -180.0 < cfg.bounds[2] < -179.98 < cfg.bounds[3] < -179.96
    for lon in (179.95, -179.99):  # a 10 km extent
        with pytest.raises(ValueError, match="crosses the antimeridian"):
            SynthWorldConfig(center_lon=lon)


def test_synth_world_all_classes_present():
    cfg = SynthWorldConfig(n_classes=8, extent_km=10.0, n_ground=2000)
    world = synth_world(cfg, seed=0)
    labels = {class_at(world.field, GeoPoint(lat, lon))
              for lat, lon in zip(world.grounds.lat, world.grounds.lon)}
    assert labels == set(range(8))


def test_synth_world_class_balance_within_3x():
    cfg = SynthWorldConfig(n_classes=8, extent_km=10.0, n_ground=4000)
    for seed in (0, 1, 2):
        world = synth_world(cfg, seed=seed)
        counts = np.bincount(world.field.class_at_many(world.grounds.lat, world.grounds.lon),
                             minlength=8)
        assert counts.min() > 0
        assert counts.max() <= 3 * counts.min(), counts


def test_synth_world_validation():
    with pytest.raises(ValueError, match="extent"):
        SynthWorldConfig(extent_km=0.0)
    with pytest.raises(ValueError):
        SynthWorldConfig(n_classes=1)
    with pytest.raises(ValueError):
        SynthWorldConfig(n_classes=8, embed_dim=4)


def test_feature_field_grid_matches_pointwise(noiseless_world):
    field = noiseless_world.field
    tile, center = TileSpec(size_px=64, patch_px=16), GeoPoint(45.0, 9.0)
    grid = field.class_grid(tile, center)
    # noiseless features are exactly the one-hot of the grid labels
    features = field.materialize(tile, center, 0)
    assert features.dtype == np.float32
    for r in range(4):
        for c in range(4):
            assert features[r, c].argmax() == grid[r, c]
            assert features[r, c].sum() == 1.0


@pytest.mark.parametrize("world_name", ["small_world", "noiseless_world"])
def test_materialize_many_matches_per_tile_oracle(request, monkeypatch, world_name):
    # 11 tiles in blocks of 4: two full blocks and a partial one, under 3 snapshots
    fld = request.getfixturevalue(world_name).field
    lat_min, lat_max, lon_min, lon_max = fld.bounds
    rng = np.random.default_rng(3)
    spec = TileSpec(size_px=64, patch_px=16)
    lat, lon = rng.uniform(lat_min, lat_max, 11), rng.uniform(lon_min, lon_max, 11)
    centers = [GeoPoint(a, b) for a, b in zip(lat, lon)]
    timestamps = [1_700_000_000 + 864_000 * (i % 3) for i in range(11)]
    monkeypatch.setattr(corpus, "FIELD_BLOCK_TILES", 4)
    got = corpus.materialize_many(fld, spec, lat, lon, timestamps)
    want = np.stack([materialize_per_tile(fld, spec, c, t) for c, t in zip(centers, timestamps)])
    assert got.dtype == np.float32 and got.shape == (11, 4, 4, fld.feature_dim)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    np.testing.assert_array_equal(corpus.class_grids(fld, spec, lat, lon),
                                  np.stack([class_grid_per_tile(fld, spec, c) for c in centers]))
    # the one-tile methods are the same computation
    np.testing.assert_array_equal(fld.materialize(spec, centers[5], timestamps[5]), want[5])
    np.testing.assert_array_equal(fld.class_grid(spec, centers[5]),
                                  class_grid_per_tile(fld, spec, centers[5]))


def test_class_grids_match_broadcast_oracle(monkeypatch):
    # up to three blocks of tiles, in worlds from 300 m to 30 km across, so
    # most tiles lie inside one class in some and few in others; a seed on a
    # patch-centre row, column or both of the last tile (its offset there is
    # exactly 0), a seed inside the first tile, a repeated seed (on 1x1-patch
    # tiles its tie with the first copy meets the whole-tile test with
    # equality); latitudes up to +-80, and a world whose west edge is the
    # antimeridian
    branches = {"whole": 0, "per patch": 0}
    whole_tile_classes = corpus._whole_tile_classes

    def spy(*args):
        whole = whole_tile_classes(*args)
        branches["whole"] += int(np.count_nonzero(whole >= 0))
        branches["per patch"] += int(np.count_nonzero(whole < 0))
        return whole

    monkeypatch.setattr(corpus, "_whole_tile_classes", spy)

    def lon_m(lat):  # metres per degree of longitude, as class_grids takes it
        return geo.METERS_PER_DEGREE * math.cos(math.radians(lat))

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 12),
        lat=st.sampled_from([-80.0, 0.0, 80.0]) | st.floats(-80.0, 80.0),
        antimeridian=st.booleans(),
        half_m=st.sampled_from([150.0, 1500.0, 15000.0]),
        n=st.integers(1, 150),
        grid=st.sampled_from([(224, 16, 1.0), (64, 16, 10.0), (96, 8, 1.0), (30, 10, 0.5),
                              (48, 16, 10.0), (16, 16, 4.0)]),
        on_line=st.sampled_from(["", "row", "column", "centre"]),
        inside=st.booleans(),
        tied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(k, lat, antimeridian, half_m, n, grid, on_line, inside, tied, seed):
        rng = np.random.default_rng(seed)
        dlat = half_m / geo.METERS_PER_DEGREE
        dlon = dlat / math.cos(math.radians(lat))
        lon = -180.0 + dlon if antimeridian else 10.0
        seeds_lat, seeds_lon = lat + rng.uniform(-dlat, dlat, k), lon + rng.uniform(-dlon, dlon, k)
        lats, lons = lat + rng.uniform(-dlat, dlat, n), lon + rng.uniform(-dlon, dlon, n)
        size, patch, res = grid
        spec = TileSpec(res, size, patch)
        north = (size / 2 - (np.arange(spec.grid_px) + 0.5) * patch) * res
        r, c = rng.integers(spec.grid_px, size=2)
        if on_line in ("row", "centre"):
            seeds_lat[-1] = lats[-1] + north[r] / geo.METERS_PER_DEGREE
        if on_line in ("column", "centre"):
            seeds_lon[-1] = lons[-1] - north[c] / lon_m(lats[-1])
        if inside:
            h = spec.half_extent_m * rng.uniform(-1, 1, 2)
            seeds_lat[0] = lats[0] + h[0] / geo.METERS_PER_DEGREE
            seeds_lon[0] = lons[0] + h[1] / lon_m(lats[0])
        i, j = np.sort(rng.choice(k, 2, replace=False)) if k > 1 else (0, 0)
        if tied and i < j:
            seeds_lat[j], seeds_lon[j] = seeds_lat[i], seeds_lon[i]
        bounds = (lat - dlat, lat + dlat, lon - dlon, lon + dlon)
        fld = VoronoiFeatureField([f"c{m}" for m in range(k)], seeds_lat, seeds_lon,
                                  GeoPoint(lat, lon), bounds, feature_dim=k, noise_sigma=0.0,
                                  noise_key=0)
        got = corpus.class_grids(fld, spec, lats, lons)
        np.testing.assert_array_equal(got, class_grids_broadcast(fld, spec, lats, lons))
        if tied and i < j:
            assert not np.any(got == j)

    check()
    assert branches["whole"] and branches["per patch"], branches


@pytest.mark.parametrize("ex, ey, want", [
    # 2x2 patches. Seed 1's farthest patch is 4 from it and seed 0's nearest,
    # (column 0, row 0), is 4 too: that patch is equally near both, so it is
    # seed 0's and the tile is not whole
    ([[2.0, 3.0], [-2.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], -1),
    # seed 0 a little farther: every patch is seed 1's
    ([[2.5, 3.0], [-2.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], 1),
    # the tie with the seeds swapped: the whole tile is seed 0's, the one
    # whose farthest patch is nearest
    ([[-2.0, 0.0], [2.0, 3.0]], [[0.0, 0.0], [0.0, 1.0]], 0),
    # 3x3 patches. Seed 0 lies between the end columns: its nearest patch is
    # 9 away in the middle column, nearer than every patch of seed 1 (9.8125),
    # though each of its end patches is at least 10 away
    ([[-1.0, 0.0, 1.0], [1.5, 1.5, 1.5]], [[3.0, 4.0, 5.0], [-2.75, -2.75, -2.75]], -1),
])
def test_whole_tile_classes_bound_each_seed_from_the_end_patches(ex, ey, want):
    ex, ey = np.array(ex)[:, None], np.array(ey)[:, None]  # (K, 1 tile, G)
    assert corpus._whole_tile_classes(ex, ey).tolist() == [want]


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, 63, 64, 65, 129]),
    sigma=st.sampled_from([0.0, 5e-324, 1e-310, 0.35]),
    layout=st.sampled_from(["random", "duplicate", "mirror"]),
    k=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_field_blocks_match_first_blocked_oracles(n, sigma, layout, k, seed):
    # blocks of 64 tiles: none, one partial, one full, one full plus a partial,
    # two full plus one tile. Tiny sigmas make sigma * z a signed zero or a
    # subnormal. "duplicate" repeats a seed; "mirror" puts two seeds 2**-12
    # degrees north and south of the middle patch row of 3x3-patch tiles, so
    # that row is exactly equidistant from both: the first index must win.
    rng = np.random.default_rng(seed)
    lat0, lon0 = 45.0, 9.0
    dlat = 3000.0 / geo.METERS_PER_DEGREE
    dlon = dlat / math.cos(math.radians(lat0))
    seeds_lat, seeds_lon = lat0 + rng.uniform(-dlat, dlat, k), lon0 + rng.uniform(-dlon, dlon, k)
    lats, lons = lat0 + rng.uniform(-dlat, dlat, n), lon0 + rng.uniform(-dlon, dlon, n)
    spec = TileSpec()
    i, j = np.sort(rng.choice(k, 2, replace=False))
    if layout == "duplicate":
        seeds_lat[j], seeds_lon[j] = seeds_lat[i], seeds_lon[i]
    elif layout == "mirror":
        spec = TileSpec(10.0, 48, 16)
        far = rng.uniform(5, 10, k) * dlat * rng.choice([-1, 1], k)
        seeds_lat, seeds_lon = lat0 + far, lon0 + rng.uniform(-dlon, dlon, k)
        seeds_lat[[i, j]], seeds_lon[[i, j]] = [lat0 + 2**-12, lat0 - 2**-12], lon0
        lats, lons = np.full(n, lat0), lon0 + rng.uniform(-1e-3, 1e-3, n)
    fld = VoronoiFeatureField([f"c{c}" for c in range(k)], seeds_lat, seeds_lon,
                              GeoPoint(lat0, lon0), (lat0 - dlat, lat0 + dlat, lon0 - dlon,
                                                     lon0 + dlon),
                              feature_dim=k + 3, noise_sigma=sigma, noise_key=seed % 1000)
    timestamps = rng.integers(0, 2**40, n)
    g = spec.grid_px

    got = corpus.materialize_many(fld, spec, lats, lons, timestamps)
    want = materialize_many_put(fld, spec, lats, lons, timestamps)
    assert got.dtype == want.dtype == np.float32 and got.shape == (n, g, g, k + 3)
    assert got.tobytes() == want.tobytes()
    labels = corpus.class_grids(fld, spec, lats, lons)
    assert labels.dtype == np.intp and labels.shape == (n, g, g)
    if n:  # the argmin oracle cannot join zero blocks
        assert labels.tobytes() == class_grids_argmin(fld, spec, lats, lons).tobytes()
    if layout == "duplicate":
        assert not np.any(labels == j)
    elif layout == "mirror":
        assert np.all(labels[:, 1] == i)


key_part = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**62]) | st.integers(0, 2**62)


@settings(max_examples=100, deadline=None)
@given(
    key=st.sampled_from([0, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**64),
    parts=st.integers(1, 3).flatmap(
        lambda width: st.lists(st.tuples(*[key_part] * width), min_size=1, max_size=12)),
)
def test_pcg64_states_equal_numpy_seeding(key, parts):
    # keys of 2 to 9 uint32 words (one to three for `key`, one or two per part):
    # rows of several lengths share a call; a tile's key (three parts) has 4
    # to 9 words, and shorter keys leave pool words to pad
    states = corpus.pcg64_states(key, np.array(parts, dtype=np.int64).reshape(len(parts), -1))
    assert states == [np.random.PCG64(np.random.SeedSequence([key, *row])).state
                      for row in parts]


def test_pcg64_states_reject_a_negative_part():
    # as SeedSequence does; a noise key part is a timestamp or a quantized center
    with pytest.raises(ValueError, match="noise key part -1 is negative"):
        corpus.pcg64_states(0, np.array([[1, 2, 3], [4, -1, 6]]))


@pytest.mark.parametrize("lat", [math.nan, -90.5])
def test_materialize_many_rejects_a_center_off_the_globe(noiseless_world, lat):
    with pytest.raises(ValueError, match="not finite or lies off the globe"):
        corpus.materialize_many(noiseless_world.field, TileSpec(), [lat], [0.0], [0])


@pytest.mark.parametrize("noise_key", [2**32, 2**64 + 1])
def test_materialize_many_with_a_wide_noise_key_matches_oracle(small_world, noise_key):
    # a noise key of two or three words, snapshot timestamp 0; two blocks of tiles
    fld = dataclasses.replace(small_world.field, noise_key=noise_key)
    lat_min, lat_max, lon_min, lon_max = fld.bounds
    rng = np.random.default_rng(11)
    lat, lon = rng.uniform(lat_min, lat_max, 70), rng.uniform(lon_min, lon_max, 70)
    timestamps = np.zeros(70, dtype=np.int64)
    got = corpus.materialize_many(fld, TileSpec(), lat, lon, timestamps)
    assert got.tobytes() == materialize_many_put(fld, TileSpec(), lat, lon, timestamps).tobytes()


def test_field_blocks_of_no_tiles(noiseless_world):
    fld, spec = noiseless_world.field, TileSpec()
    labels = corpus.class_grids(fld, spec, [], [])
    assert labels.shape == (0, spec.grid_px, spec.grid_px) and labels.dtype == np.intp
    features = corpus.materialize_many(fld, spec, [], [], [])
    assert features.shape == (0, spec.grid_px, spec.grid_px, fld.feature_dim)
    assert features.dtype == np.float32


def test_materialize_many_rejects_mismatched_inputs(noiseless_world):
    fld = noiseless_world.field
    lat, lon = [fld.origin.lat], [fld.origin.lon]
    with pytest.raises(ValueError, match="1 lats, 1 lons and 2 timestamps"):
        corpus.materialize_many(fld, TileSpec(), lat, lon, [0, 1])
    with pytest.raises(ValueError, match="1 lats, 2 lons and 1 timestamps"):
        corpus.materialize_many(fld, TileSpec(), lat, lon * 2, [0])


def test_feature_field_json_roundtrip(tmp_path, noiseless_world):
    path = tmp_path / "field.json"
    save_feature_field(noiseless_world.field, path)
    loaded = load_feature_field(path)
    assert loaded.class_names == noiseless_world.field.class_names
    np.testing.assert_array_equal(loaded.seeds_lat, noiseless_world.field.seeds_lat)
    assert loaded.bounds == tuple(noiseless_world.field.bounds)
    center = GeoPoint(45.0, 9.0)
    np.testing.assert_array_equal(
        loaded.materialize(TileSpec(), center, 123),
        noiseless_world.field.materialize(TileSpec(), center, 123),
    )
    path.write_text("{not json")
    with pytest.raises(IntegrityError):
        load_feature_field(path)


@pytest.mark.parametrize("key, value", [("noise_sigma", math.inf), ("noise_sigma", -0.1),
                                        ("noise_sigma", math.nan), ("seeds_lat", math.nan),
                                        ("seeds_lon", math.inf)])
def test_feature_field_rejects_non_finite_noise_and_seeds(tmp_path, noiseless_world, key, value):
    path = tmp_path / "field.json"
    save_feature_field(noiseless_world.field, path)
    payload = json.loads(path.read_text())
    payload[key] = value if key == "noise_sigma" else [value] + payload[key][1:]
    path.write_text(json.dumps(payload))
    with pytest.raises(IntegrityError, match="noise_sigma|seed coordinates"):
        load_feature_field(path)


def test_world_write_and_load_dir(tmp_path, noiseless_world):
    out = tmp_path / "world"
    noiseless_world.write(out)
    loaded = corpus.load_world_dir(out)
    assert loaded.class_names == noiseless_world.class_names
    assert len(loaded.grounds) == len(noiseless_world.grounds)
    assert loaded.ground_encoder.dim == noiseless_world.ground_encoder.dim
    fields = corpus.resolve_fields(loaded.snapshots, out)
    assert set(fields) == {"field.json"}


def test_dataset_container_roundtrip(tmp_path, small_dataset):
    path = tmp_path / "ds.grft"
    save_dataset(small_dataset, path)
    loaded = load_dataset(path)
    assert loaded == small_dataset


def test_dataset_container_truncated(tmp_path, small_dataset):
    path = tmp_path / "ds.grft"
    save_dataset(small_dataset, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="byte"):
        load_dataset(path)


def test_dataset_container_bad_magic(tmp_path, small_dataset):
    path = tmp_path / "ds.grft"
    save_dataset(small_dataset, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_dataset(path)


def test_dataset_container_bad_version(tmp_path, small_dataset):
    path = tmp_path / "ds.grft"
    save_dataset(small_dataset, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_dataset(path)


@pytest.mark.parametrize("n, width", [(1, 6), (10**6, 6), (10**6 + 1, 7)])
def test_tile_ids_share_one_width(n, width):
    # container records are fixed-size, so the first and last id of n tiles
    # must have one length; 6 digits, as always, up to a million tiles
    assert corpus._tile_id_width(n) == width
    assert len(f"t{0:0{width}d}") == len(f"t{n - 1:0{width}d}") == 1 + width


def test_subset_tiles_keeps_integrity(small_dataset):
    sub = subset_tiles(small_dataset, [3, 1, 4])
    assert sub.tiles.ids == [small_dataset.tiles.ids[i] for i in (3, 1, 4)]
    assert sub.tiles == take_tiles(small_dataset.tiles, [3, 1, 4])
    sub.pair_index()
    lists = pair_lists(small_dataset.offsets, small_dataset.ground)
    assert pair_lists(sub.offsets, sub.ground) == [lists[i] for i in (3, 1, 4)]
    assert sub.offsets.dtype == sub.ground.dtype == np.int64
    assert sub.provenance["n_tiles"] == 3 and sub.provenance["n_pairs"] == len(sub.ground)


def test_cap_applies_in_build(noiseless_world):
    world = noiseless_world
    _, lat, lon, _, ref = ground_rows(world.grounds)[0]
    crowd = ground_table([
        (f"c{i}", lat + (i % 7) * 1e-5, lon + (i // 7) * 1e-5, 1700000000 + i, ref)
        for i in range(40)
    ])
    spec = TileSpec()
    ds = build_pairs(
        crowd, world.snapshots, spec, cap=25, min_sep_px=112, seed=1,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    assert len(ds.tiles) == 1
    assert ds.offsets.tolist() == [0, 25]


def differing(value):
    """A value of the same kind and shape as `value` that is not equal to it."""
    if isinstance(value, (np.ndarray, corpus.TileFeatures)):  # features not in memory: an array
        out = np.array(value)
        out.flat[0] += 1
        return out
    if isinstance(value, list):
        return ["other", *value[1:]]
    if isinstance(value, dict):
        return {**value, "other": 1}
    if isinstance(value, geo.TileSpec):
        return dataclasses.replace(value, patch_px=2 * value.patch_px)
    return dataclasses.replace(value, ids=differing(value.ids))  # a column table


def test_column_tables_compare_every_field_but_the_pair_index(small_dataset):
    ds = small_dataset
    for table in (ds.tiles, ds.grounds, ds):
        assert dataclasses.replace(table) == table
        for f in dataclasses.fields(table):
            if f.compare:
                other = dataclasses.replace(table, **{f.name: differing(getattr(table, f.name))})
                assert other != table and table != other, f.name
    fresh = dataclasses.replace(ds)
    ds.pair_index()
    assert fresh._pairs is None and ds._pairs is not None and fresh == ds
