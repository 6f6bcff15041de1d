from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    OutOfFootprintError,
    PixelCoord,
    cap_subsample_lists,
    flat_earth_distance_m,
    flat_earth_offset_m,
    geotag_to_pixel,
    meters_per_degree,
    pixel_to_geotag,
    pair_lists,
    pairs_of,
    pixel_to_patch,
    sample_tiles_scan,
    tile_contains,
)
from graft import geo
from graft.geo import GeoPoint, TileSpec, cap_subsample, sample_tiles


def test_meters_per_degree_equator():
    assert meters_per_degree(0.0) == (111320.0, pytest.approx(111320.0))


def test_meters_per_degree_60():
    _, m_lon = meters_per_degree(60.0)
    assert m_lon == pytest.approx(55660.0)


def test_meters_per_degree_pole():
    m_lat, m_lon = meters_per_degree(90.0)
    assert m_lat == 111320.0
    assert abs(m_lon) < 1e-9


@pytest.mark.parametrize("lat", [-90.001, 90.001, 180.0])
def test_meters_per_degree_domain(lat):
    with pytest.raises(ValueError):
        meters_per_degree(lat)


def test_geopoint_lon_normalization():
    assert GeoPoint(0.0, 180.0).lon == -180.0
    assert GeoPoint(0.0, 361.0).lon == pytest.approx(1.0)
    assert GeoPoint(0.0, -180.0).lon == -180.0
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, math.inf)


@pytest.mark.parametrize("res", [0.0, -1.0, math.nan, math.inf])
def test_tilespec_rejects_resolution_outside_domain(res):
    # a finite positive resolution keeps every tile's spawning ground inside it
    with pytest.raises(ValueError, match="positive and finite"):
        TileSpec(resolution_m_per_px=res)


@pytest.mark.parametrize("size_px, patch_px", [(0, 16), (224, 0)])
def test_tilespec_rejects_an_empty_tile_or_patch(size_px, patch_px):
    # a 0 px tile is divisible into 16 px patches, yet holds no patch
    with pytest.raises(ValueError, match="must be positive"):
        TileSpec(size_px=size_px, patch_px=patch_px)


def test_tilespec_divisibility():
    with pytest.raises(ValueError):
        TileSpec(size_px=224, patch_px=15)
    spec = TileSpec()
    assert spec.grid_px == 14
    assert spec.half_extent_m == 112.0


def test_geotag_to_pixel_center():
    center = GeoPoint(40.0, -75.0)
    assert geotag_to_pixel(TileSpec(), center, center) == PixelCoord(112, 112)


def test_geotag_to_pixel_50m_east():
    tile = TileSpec(resolution_m_per_px=1.0)
    east_deg = 50.0 / (geo.METERS_PER_DEGREE * math.cos(math.radians(40.0)))
    p = GeoPoint(40.0, -75.0 + east_deg)
    assert geotag_to_pixel(tile, GeoPoint(40.0, -75.0), p) == PixelCoord(112, 162)


def test_geotag_to_pixel_out_of_footprint():
    tile = TileSpec(resolution_m_per_px=1.0, size_px=224)
    north = GeoPoint(40.0 + 200.0 / geo.METERS_PER_DEGREE, -75.0)
    with pytest.raises(OutOfFootprintError):
        geotag_to_pixel(tile, GeoPoint(40.0, -75.0), north)


def test_boundary_point_excluded():
    # containment is a strict inequality: straddle the 112 m boundary
    tile, center = TileSpec(resolution_m_per_px=1.0, size_px=224), GeoPoint(0.0, 0.0)
    just_out = GeoPoint((112.0 + 1e-4) / geo.METERS_PER_DEGREE, 0.0)
    just_in = GeoPoint((112.0 - 1e-4) / geo.METERS_PER_DEGREE, 0.0)
    assert not tile_contains(tile, center, just_out)
    assert tile_contains(tile, center, just_in)
    with pytest.raises(OutOfFootprintError):
        geotag_to_pixel(tile, center, just_out)
    assert geotag_to_pixel(tile, center, just_in) == PixelCoord(0, 112)


@pytest.mark.parametrize(
    "px,patch,expected",
    [((0, 0), 16, (0, 0)), ((15, 15), 16, (0, 0)), ((16, 0), 16, (1, 0))],
)
def test_pixel_to_patch(px, patch, expected):
    got = pixel_to_patch(PixelCoord(*px), patch)
    assert (got.prow, got.pcol) == expected


def test_pixel_to_patch_negative():
    with pytest.raises(ValueError):
        pixel_to_patch(PixelCoord(-1, 0), 16)


@settings(max_examples=200, deadline=None)
@given(
    lat=st.floats(-60, 60),
    lon=st.floats(-179, 179),
    north=st.floats(-2000, 2000),
    east=st.floats(-2000, 2000),
)
def test_roundtrip_geo_pixel_geo(lat, lon, north, east):
    # 448 px at 10 m/px covers +-2240 m, so any 2 km offset stays inside.
    tile, center = TileSpec(resolution_m_per_px=10.0, size_px=448), GeoPoint(lat, lon)
    p = GeoPoint(
        lat + north / geo.METERS_PER_DEGREE,
        lon + east / (geo.METERS_PER_DEGREE * math.cos(math.radians(lat))),
    )
    px = geotag_to_pixel(tile, center, p)
    back = pixel_to_geotag(tile, center, px)
    dn, de = flat_earth_offset_m(center, back)
    dn0, de0 = flat_earth_offset_m(center, p)
    assert abs(dn - dn0) <= 0.5 * tile.resolution_m_per_px + 1e-6
    assert abs(de - de0) <= 0.5 * tile.resolution_m_per_px + 1e-6


@settings(max_examples=100, deadline=None)
@given(
    lat=st.floats(-60, 60),
    row=st.integers(0, 447),
    col=st.integers(0, 447),
)
def test_roundtrip_pixel_geo_pixel_exact(lat, row, col):
    tile, center = TileSpec(resolution_m_per_px=10.0, size_px=448), GeoPoint(lat, 10.0)
    px = PixelCoord(row, col)
    assert geotag_to_pixel(tile, center, pixel_to_geotag(tile, center, px)) == px


def sample(points, spec, min_sep_px):
    """sample_tiles over GeoPoints: the center points and the per-tile lists."""
    centers, offsets, members = sample_tiles(np.array([p.lat for p in points]),
                                             np.array([p.lon for p in points]), spec, min_sep_px)
    assert offsets.dtype == members.dtype == np.int64
    return [points[c] for c in centers], pair_lists(offsets, members)


def test_sample_tiles_single_point():
    centers, assignment = sample([GeoPoint(40.0, -75.0)], TileSpec(), 112)
    assert centers == [GeoPoint(40.0, -75.0)]
    assert assignment == [[0]]


def test_sample_tiles_two_close_points():
    spec = TileSpec(resolution_m_per_px=1.0)
    a = GeoPoint(40.0, -75.0)
    b = GeoPoint(40.0 + 50.0 / geo.METERS_PER_DEGREE, -75.0)
    tiles, assignment = sample([a, b], spec, 112)
    assert len(tiles) == 1
    assert assignment == [[0, 1]]


def test_sample_tiles_two_far_points():
    spec = TileSpec(resolution_m_per_px=1.0)
    a = GeoPoint(40.0, -75.0)
    b = GeoPoint(40.0 + 300.0 / geo.METERS_PER_DEGREE, -75.0)
    tiles, assignment = sample([a, b], spec, 112)
    assert len(tiles) == 2
    assert assignment == [[0], [1]]


def test_sample_tiles_empty_and_negative():
    spec = TileSpec()
    with pytest.raises(ValueError):
        sample_tiles(np.empty(0), np.empty(0), spec, 112)
    with pytest.raises(ValueError):
        sample_tiles(np.zeros(1), np.zeros(1), spec, -1)


def test_sample_tiles_invariants_random():
    rng = np.random.default_rng(5)
    spec = TileSpec(resolution_m_per_px=1.0)
    base = GeoPoint(44.0, 7.0)
    lat = base.lat + rng.uniform(-0.01, 0.01, size=300)
    lon = base.lon + rng.uniform(-0.013, 0.013, size=300)
    points = [GeoPoint(a, b) for a, b in zip(lat, lon)]
    centers, assignment = sample(points, spec, 112)
    min_sep_m = 112 * spec.resolution_m_per_px

    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            assert flat_earth_distance_m(centers[i], centers[j]) >= min_sep_m

    # every point belongs to exactly the tiles whose footprints contain it
    member_sets = [set(a) for a in assignment]
    for pi, p in enumerate(points):
        for ti, center in enumerate(centers):
            assert (pi in member_sets[ti]) == tile_contains(spec, center, p)

    # spawning points are strictly inside their own tile: patch mapping is total
    for center, members in zip(centers, assignment):
        for m in members:
            px = geotag_to_pixel(spec, center, points[m])
            patch = pixel_to_patch(px, spec.patch_px)
            assert 0 <= patch.prow < spec.grid_px
            assert 0 <= patch.pcol < spec.grid_px


# ---- grid-bucketed sample_tiles against the all-pairs scan ----------------------

M = geo.METERS_PER_DEGREE
# On a lattice of 2**-12 degree steps at M * 2**-16 m/px, a 64 px separation is
# exactly 4 latitude steps and a 224 px tile's half extent exactly 7, so pairs
# fall exactly at the separation and points exactly on footprint edges.
LATTICE_DEG = 2.0**-12
LATTICE_RES = M * 2.0**-16


def assert_same_as_scan(points, spec, min_sep_px):
    centers, assignment = sample(points, spec, min_sep_px)
    want_centers, want_assignment = sample_tiles_scan(points, spec, min_sep_px)
    assert centers == [points[c] for c in want_centers]
    assert assignment == want_assignment
    return centers, assignment


def test_lattice_hits_separation_and_edges_exactly():
    a = GeoPoint(44.0, 7.0)
    b, c = GeoPoint(44.0 + 4 * LATTICE_DEG, 7.0), GeoPoint(44.0 + 7 * LATTICE_DEG, 7.0)
    tile = TileSpec(resolution_m_per_px=LATTICE_RES)
    assert flat_earth_offset_m(a, b)[0] == 64 * LATTICE_RES
    assert flat_earth_offset_m(a, c)[0] == tile.half_extent_m
    assert not tile_contains(tile, a, c)
    # at exactly the separation a point still spawns: the test is strict
    centers, assignment = assert_same_as_scan([a, b, c], tile, 64)
    assert centers == [a, b]
    assert assignment == [[0, 1], [0, 1, 2]]


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1,
                   max_size=60),
    min_sep_px=st.sampled_from([0, 1, 64, 65, 128]),
)
def test_sample_tiles_matches_scan_on_lattice(cells, min_sep_px):
    # repeated cells are duplicate points
    points = [GeoPoint(44.0 + i * LATTICE_DEG, 7.0 + j * LATTICE_DEG) for i, j in cells]
    assert_same_as_scan(points, TileSpec(resolution_m_per_px=LATTICE_RES),
                        min_sep_px)


@settings(max_examples=60, deadline=None)
@given(
    lat=st.floats(-80.0, 80.0),
    lon=st.floats(-180.0, 179.0),
    n_clusters=st.integers(1, 4),
    spread_m=st.sampled_from([0.0, 5.0, 60.0, 400.0, 3000.0]),
    n=st.integers(1, 80),
    n_dup=st.integers(0, 20),
    min_sep_px=st.sampled_from([0, 1, 56, 112, 300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_tiles_matches_scan_clustered(lat, lon, n_clusters, spread_m, n, n_dup,
                                             min_sep_px, seed):
    rng = np.random.default_rng(seed)
    scale = np.array([1.0, 1.0 / math.cos(math.radians(lat))]) / M
    centers = np.array([lat, lon]) + rng.uniform(-1, 1, (n_clusters, 2)) * 2000.0 * scale
    pts = centers[rng.integers(n_clusters, size=n)] + rng.normal(size=(n, 2)) * spread_m * scale
    pts = np.concatenate([pts, pts[rng.integers(n, size=n_dup)]])
    points = [GeoPoint(a, b) for a, b in pts]
    assert_same_as_scan(points, TileSpec(), min_sep_px)


@pytest.mark.parametrize("bearing", ["north", "east"])
def test_sample_tiles_matches_scan_on_chain_just_inside_separation(bearing):
    # consecutive points 0.9995 separations apart, so some pairs that conflict
    # straddle a cell boundary just short of two cells
    step = 0.9995 * 112 / M
    k = np.arange(3000)
    lats, lons = (44.0 + k * step, np.full(3000, 7.0)) if bearing == "north" else (
        np.full(3000, 44.0), 7.0 + k * step / math.cos(math.radians(44.0)))
    points = [GeoPoint(a, b) for a, b in zip(lats, lons)]
    tiles, _ = assert_same_as_scan(points, TileSpec(), 112)
    assert len(tiles) == 1500


@pytest.mark.parametrize("lat", [80.0, -80.0, 89.999])
def test_sample_tiles_matches_scan_at_high_latitude(lat):
    # a degree of longitude is ~19 km at 80 degrees and ~200 m at 89.999
    rng = np.random.default_rng(int(abs(lat)))
    lats = lat + rng.uniform(-1, 1, 400) * 1500.0 / M
    lons = 20.0 + rng.uniform(-1, 1, 400) * 0.05
    points = [GeoPoint(a, b) for a, b in zip(np.clip(lats, -90, 90), lons)]
    assert_same_as_scan(points, TileSpec(), 112)


def test_sample_tiles_matches_scan_across_antimeridian():
    # plain longitude subtraction puts 179.9995 and -179.9995 ~100 km apart at
    # 45 degrees, so neither phase pairs points across +-180
    rng = np.random.default_rng(1)
    lons = np.concatenate([180.0 - rng.uniform(0, 0.002, 100), -180.0 + rng.uniform(0, 0.002, 100)])
    points = [GeoPoint(45.0 + rng.uniform(-1, 1) * 0.001, lon) for lon in lons]
    tiles, assignment = assert_same_as_scan(points, TileSpec(), 112)
    east = {i for i, p in enumerate(points) if p.lon > 0}
    assert all(set(a) <= east or not set(a) & east for a in assignment)


@pytest.mark.parametrize("min_sep_px", [0, 112])
def test_sample_tiles_single_point_matches_scan(min_sep_px):
    assert_same_as_scan([GeoPoint(-33.9, 151.2)], TileSpec(), min_sep_px)


def test_sample_tiles_one_cell_memory_stays_chunked():
    # 2000 points within a metre share one grid cell in both phases: 4M
    # candidate pairs per phase, 32 MB per int64 array if made at once
    import tracemalloc

    rng = np.random.default_rng(2)
    points = [GeoPoint(50.0 + a / M, 8.0 + b / M) for a, b in rng.uniform(0, 1, (2000, 2))]
    lat, lon = np.array([p.lat for p in points]), np.array([p.lon for p in points])
    tracemalloc.start()
    try:
        centers, offsets, members = sample_tiles(lat, lon, TileSpec(), 112)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    want_centers, want_assignment = sample_tiles_scan(points, TileSpec(), 112)
    assert (centers.tolist(), pair_lists(offsets, members)) == (want_centers, want_assignment)


def cap_lists(assignment, cap, seed):
    """cap_subsample over per-tile lists, its CSR input and output converted."""
    return pair_lists(*cap_subsample(*pairs_of(assignment), cap=cap, seed=seed))


def test_cap_subsample_under_cap_unchanged():
    assignment = [list(range(10))]
    assert cap_lists(assignment, cap=25, seed=0) == [list(range(10))]


def test_cap_subsample_caps_and_subsets():
    assignment = [list(range(100, 140))]
    capped = cap_lists(assignment, cap=25, seed=3)
    assert len(capped[0]) == 25
    assert set(capped[0]) <= set(range(100, 140))


def test_cap_subsample_deterministic():
    assignment = [list(range(40)), list(range(40, 120))]
    a = cap_lists(assignment, cap=25, seed=11)
    b = cap_lists(assignment, cap=25, seed=11)
    assert a == b
    c = cap_lists(assignment, cap=25, seed=12)
    assert a != c  # overwhelmingly likely for these sizes


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 60), min_size=1, max_size=6),
    cap=st.integers(1, 30),
    seed=st.integers(0, 2**31 - 1),
)
def test_cap_subsample_properties(sizes, cap, seed):
    assignment = [list(range(1000 * i, 1000 * i + n)) for i, n in enumerate(sizes)]
    capped = cap_lists(assignment, cap=cap, seed=seed)
    for orig, kept in zip(assignment, capped):
        assert len(kept) == min(len(orig), cap)
        assert set(kept) <= set(orig)
        assert kept == sorted(kept)  # original relative order preserved


@settings(max_examples=200, deadline=None)
@given(
    lists=st.lists(st.lists(st.integers(0, 2**40), max_size=40), max_size=8),
    cap=st.integers(1, 30),
    seed=st.integers(0, 2**63 - 1),
)
def test_cap_subsample_keeps_the_list_oracles_members(lists, cap, seed):
    # the same seed draws the same members, tile by tile, as the per-list version
    offsets, members = cap_subsample(*pairs_of(lists), cap=cap, seed=seed)
    assert offsets.dtype == members.dtype == np.int64
    assert pair_lists(offsets, members) == cap_subsample_lists(lists, cap=cap, seed=seed)


def test_cap_validation():
    with pytest.raises(ValueError):
        cap_subsample(*pairs_of([[1]]), cap=0, seed=0)


@settings(max_examples=300, deadline=None)
@given(st.floats(-180, 180, exclude_max=True) | st.sampled_from([-0.0, -180.0, 1.8985669713365354,
                                                                  180.0 - 2**-45]))
def test_wrap_lon_keeps_in_range_longitudes_bit_for_bit(lon):
    assert math.copysign(1, geo.wrap_lon(lon)) == math.copysign(1, lon)
    assert geo.wrap_lon(lon) == lon
    arr = np.array([lon, lon + 360.0, lon - 720.0])
    wrapped = geo.wrap_lon(arr)
    assert wrapped[0].tobytes() == arr[0].tobytes()
    assert [Fraction(w) for w in wrapped[1:].tolist()] == [exact_wrap(x) for x in arr[1:].tolist()]
    assert [geo.wrap_lon(x) for x in arr.tolist()] == wrapped.tolist()


def exact_wrap(lon: float) -> Fraction:
    """The longitude in [-180, 180) that differs from `lon` by a multiple of 360, exactly."""
    return (Fraction(lon) + 180) % 360 - 180


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([3.6000000000000006e+17, 1e300, -1e300, 2.0**55 + 8, -(2.0**60),
                          -180.00000000000003, 540.0, -540.0, 360.0, -360.0, 5e-324]))
def test_wrap_lon_is_the_exact_wrap_of_every_finite_longitude(lon):
    wrapped = geo.wrap_lon(lon)
    assert type(wrapped) is float and Fraction(wrapped) == exact_wrap(lon)
    assert geo.wrap_lon(np.array([lon, -lon])).tobytes() == \
        np.array([wrapped, geo.wrap_lon(-lon)]).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not -180 <= x < 180)
       | st.sampled_from([-180.00000000000003, 180.0, 900.0, -1e300]))
def test_wrap_lon_maps_out_of_range_longitudes_into_range(lon):
    # a longitude just below -180 must land just below 180, not on 180
    wrapped = geo.wrap_lon(lon)
    assert -180.0 <= wrapped < 180.0
    arr = geo.wrap_lon(np.array([lon, -lon]))
    assert np.all((-180.0 <= arr) & (arr < 180.0)) and arr[0] == wrapped
    assert GeoPoint(0.0, lon).lon == wrapped


@given(st.floats(), st.floats())
@example(-90.0, 0.0)  # the latitude domain is closed: both poles are on the globe
@example(90.0, 0.0)
def test_on_globe_scalar_and_array_agree(lat, lon):
    on = bool(geo.on_globe(lat, lon))
    assert on == (-90.0 <= lat <= 90.0 and math.isfinite(lon))
    assert geo.on_globe(np.array([lat]), np.array([lon]))[0] == on
    if not on:
        with pytest.raises(ValueError, match=re.escape(geo.off_globe_reason(lat, lon))):
            GeoPoint(lat, lon)
