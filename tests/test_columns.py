"""The columnar ground and fixture codecs against their one-record-at-a-time oracles.

The ground manifest parser, the embedding fixture writer and reader and the
dataset container's ground and assignment sections read and write whole
columns. On drawn inputs (variable-length UTF-8 keys and ids, comments and
blank lines, duplicate ids and keys, truncations, byte flips and empty tables)
each gives the columns, bytes or error of its oracle in `_oracles`: the same
error class and message, so the same line or byte offset. The one allowed
difference: a declared count that the bytes left cannot hold fails at once,
before anything is read or allocated, where the oracle reads on to the cut
(`test_formats.py` checks that it fails near the count, in little memory).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (ground_table, load_dataset_scan, load_embeddings_scan,
                      pairs_of, parse_ground_manifest_scan, save_dataset_scan,
                      save_embeddings_scan, section_at)
from graft import corpus
from graft.codec import FormatError
from graft.corpus import PairedDataset, TileTable
from graft.frozen import load_embeddings, save_embeddings
from graft.geo import TileSpec


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("columns")


def outcome(fn, *args):
    """("ok", result) or (error class, message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:  # FormatError and ManifestError among them
        return type(exc), str(exc)


def ground_columns(g) -> tuple:
    return (g.ids, g.refs, g.lat.dtype, g.lat.tobytes(), g.lon.dtype, g.lon.tobytes(),
            g.timestamp.dtype, g.timestamp.tobytes())


def assert_same_error_or_overrun(got, want):
    """`got` fails as `want` does, or fails early on a count the bytes cannot hold."""
    if got[0] is FormatError and "overrun" in got[1]:  # the oracle has no such check
        assert want[0] is FormatError, want
    else:
        assert got[0] == want[0] and got[1] == want[1], (got, want)


# ---- ground manifest ----------------------------------------------------------

# no whitespace, so a drawn token stays one field
TOKEN = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                min_size=1, max_size=5)
IDS = st.sampled_from(["g0", "g1", "é", "#x"]) | TOKEN
COORDS = st.one_of(st.sampled_from(["0", "45.5", "-90", "90", "180", "-180", "540.5", "1_0"]),
                   st.sampled_from(["90.0001", "-91", "nan", "inf", "-inf", "1e400", "abc",
                                    "0x10"]),
                   st.floats().map(repr))
STAMPS = st.sampled_from(["0", "1700000000", str(2**62), str(2**62 + 1), "-1", "x", "1.5",
                          "+5", "1_000"])
GOOD_LINE = st.builds(lambda *f: " ".join(f), IDS, COORDS, COORDS, STAMPS, IDS)
OTHER_LINE = st.one_of(
    st.just(""), st.just("   "), TOKEN.map(lambda t: "# " + t),
    st.lists(TOKEN, min_size=1, max_size=7).map(" ".join),
)
MANIFEST = st.lists(st.one_of(GOOD_LINE, GOOD_LINE, OTHER_LINE), max_size=8)


@settings(max_examples=300, deadline=None)
@given(lines=MANIFEST, newline=st.sampled_from(["\n", "\r\n"]))
def test_manifest_parse_matches_line_oracle(scratch, lines, newline):
    path = scratch / "ground_manifest.txt"
    path.write_text(newline.join(lines), encoding="utf-8", newline="")
    got = outcome(corpus.parse_ground_manifest, path)
    want = outcome(parse_ground_manifest_scan, path)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert ground_columns(got[1]) == ground_columns(want[1])
    else:
        assert got == want


@pytest.mark.parametrize("text, error", [
    ("g0 0 0 1 r\ng0 abc 0 1 r\n", ":2: duplicate ground id 'g0'"),
    ("g0 abc def 1 r\n", ":1: could not convert string to float: 'abc'"),
    ("g0 0 def 1 r\n", ":1: could not convert string to float: 'def'"),
    ("g0 91 nan 1 r\n", ":1: latitude 91.0 outside [-90, 90]"),
    ("g0 0 inf 1 r\n", ":1: longitude inf is not finite"),
    ("g0 91 0 1 r\ng1 0 0 1\n", ":1: latitude 91.0 outside"),
    ("g0 0 0 1 r\ng1 0 0 1\ng1 0 0 1 r\n", ":2: expected 5 fields, got 4"),
    ("g0 0 0 1 r\ng1 0 0 x r\ng1 0 0 1 r\n", ":2: invalid literal for int()"),
    ("g0 0 0 1 r\n\n# c\ng0 0 0 -1 r\n", ":4: timestamp -1 outside"),
], ids=["dup_before_float", "lat_before_lon", "lon_float", "lat_before_lon_range",
        "lon_range", "geo_before_later_fields", "fields_before_dup", "int_before_dup",
        "stamp_before_dup"])
def test_manifest_reports_the_first_check_of_the_first_bad_line(scratch, text, error):
    path = scratch / "ground_manifest.txt"
    path.write_text(text)
    got = outcome(corpus.parse_ground_manifest, path)
    assert got == outcome(parse_ground_manifest_scan, path)
    assert error in got[1], got


# ---- embedding fixture --------------------------------------------------------

KEYS = st.text(max_size=6) | st.text(min_size=7, max_size=30)
F32 = st.floats(width=32)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(0, 5))
def test_fixture_writer_matches_entry_oracle(scratch, data, dim):
    keys = data.draw(st.lists(KEYS, max_size=10, unique=True), label="keys")
    vectors = np.array(data.draw(st.lists(st.lists(F32, min_size=dim, max_size=dim),
                                          min_size=len(keys), max_size=len(keys))),
                       dtype=np.float64).reshape(len(keys), dim)
    got = outcome(save_embeddings, scratch / "a.bin", keys, vectors)
    want = outcome(save_embeddings_scan, scratch / "b.bin", dict(zip(keys, vectors)))
    assert got[0] == want[0]
    if got[0] == "ok":
        assert (scratch / "a.bin").read_bytes() == (scratch / "b.bin").read_bytes()
    else:
        assert got[1] == want[1]


def raw_fixture(entries, dim: int, count: int | None = None) -> bytes:
    """Fixture bytes of (key bytes, vector) entries as given: any order, repeats kept."""
    body = b"".join(struct.pack("<H", len(k)) + k + np.asarray(v, "<f4").tobytes()
                    for k, v in entries)
    return struct.pack("<II", len(entries) if count is None else count, dim) + body


def mutated(data, raw: bytes) -> bytes:
    """`raw` with up to three bytes flipped, then cut short, with bytes
    appended, or neither."""
    out = bytearray(raw)
    for _ in range(data.draw(st.integers(0, 3), label="flips") if raw else 0):
        out[data.draw(st.integers(0, len(out) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="mask")
    how = data.draw(st.sampled_from(["cut", "cut", "append", "keep"]), label="how")
    if how == "cut":
        return bytes(out[: data.draw(st.integers(0, len(out)), label="cut")])
    if how == "append":
        return bytes(out) + data.draw(st.binary(min_size=1, max_size=3), label="tail")
    return bytes(out)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), dim=st.integers(0, 4))
def test_fixture_reader_matches_entry_oracle(scratch, data, dim):
    keys = data.draw(st.lists(st.sampled_from(["a", "b", "é"]) | KEYS, max_size=8), label="keys")
    entries = [(k.encode(), data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
               for k in keys]
    raw = mutated(data, raw_fixture(entries, dim))
    path = scratch / "fixture.bin"
    path.write_bytes(raw)
    got, want = outcome(load_embeddings, path), outcome(load_embeddings_scan, path)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert got[1].keys == want[1].keys
        assert got[1].vectors.tobytes() == want[1].vectors.tobytes()
    else:
        assert_same_error_or_overrun(got, want)


# ---- dataset container: the ground and assignment sections --------------------

GROUNDS = st.lists(st.tuples(KEYS, st.floats(-90, 90), st.floats(-180, 180, exclude_max=True),
                             st.integers(-(2**63), 2**63 - 1), KEYS), max_size=6)


def drawn_dataset(data) -> PairedDataset:
    n = data.draw(st.integers(0, 3), label="tiles")
    spec = TileSpec(1.0, 32, 16)
    tiles = TileTable(spec, [f"t{i}" for i in range(n)], np.full(n, 45.0), np.full(n, 7.0),
                      np.arange(n, dtype=np.int64), np.ones((n, 2, 2, 1), dtype=np.float32))
    rows = data.draw(GROUNDS, label="grounds")
    grounds = ground_table(rows)
    grounds.lon = np.array([r[2] for r in rows], dtype=np.float64)  # as drawn, not re-wrapped
    lists = data.draw(st.lists(st.lists(st.integers(0, 2**32 - 1), max_size=4),
                               min_size=n, max_size=n), label="assignments")
    return PairedDataset(tiles, grounds, *pairs_of(lists), {"n": n})


def dataset_state(ds) -> tuple:
    return (ds.tiles, ground_columns(ds.grounds), ds.offsets.dtype, ds.offsets.tobytes(),
            ds.ground.dtype, ds.ground.tobytes(), ds.provenance)


def with_section(raw: bytes, k: int, body: bytes) -> bytes:
    """The container `raw` with section k's bytes replaced by `body`, framed anew."""
    start = section_at(raw, k)
    end = start + struct.unpack_from("<Q", raw, start - 8)[0]
    return raw[: start - 8] + struct.pack("<Q", len(body)) + body + raw[end:]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tile_section_matches_per_tile_writer(scratch, data):
    # ids of one UTF-8 byte length (empty, ASCII or multi-byte), any geotag,
    # timestamp and features; also the loaded container, whose features view
    # the file's records
    n = data.draw(st.integers(0, 5), label="tiles")
    spec = data.draw(st.sampled_from([TileSpec(1.0, 32, 16), TileSpec(10.0, 48, 16)]))
    prefix = data.draw(st.sampled_from(["", "t", "\u00e9", "\u20ac"]), label="id prefix")
    ids = [""] if n == 1 and data.draw(st.booleans(), label="empty id") else \
        [f"{prefix}{i}" for i in range(n)]
    lat = data.draw(st.lists(st.floats(-90, 90), min_size=n, max_size=n), label="lat")
    lon = data.draw(st.lists(st.floats(-180, 180, exclude_max=True), min_size=n, max_size=n),
                    label="lon")
    timestamps = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n),
                           label="timestamps")
    f = data.draw(st.integers(1, 3), label="feature_dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    features = rng.standard_normal((n, spec.grid_px, spec.grid_px, f)).astype(np.float32)
    tiles = TileTable(spec, ids, np.array(lat), np.array(lon), np.array(timestamps, np.int64),
                      features)
    ds = PairedDataset(tiles, ground_table([]), *pairs_of([[]] * n), {})
    corpus.save_dataset(ds, scratch / "a.grft")
    saved = (scratch / "a.grft").read_bytes()
    save_dataset_scan(ds, scratch / "b.grft")
    assert saved == (scratch / "b.grft").read_bytes()
    # load then save gives the file's bytes back, longitudes included
    corpus.save_dataset(corpus.load_dataset(scratch / "a.grft"), scratch / "c.grft")
    assert (scratch / "c.grft").read_bytes() == saved


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_container_codec_matches_record_oracle(scratch, data):
    ds = drawn_dataset(data)
    corpus.save_dataset(ds, scratch / "a.grft")
    save_dataset_scan(ds, scratch / "b.grft")
    raw = (scratch / "a.grft").read_bytes()
    assert raw == (scratch / "b.grft").read_bytes()
    # the ground or assignment section's bytes mutated within intact framing, or the file's
    k = data.draw(st.sampled_from([1, 1, 2, None]), label="section")
    if k is None:
        raw = mutated(data, raw)
    else:
        start = section_at(raw, k)
        body = raw[start : start + struct.unpack_from("<Q", raw, start - 8)[0]]
        raw = with_section(raw, k, mutated(data, body))
    path = scratch / "variant.grft"
    path.write_bytes(raw)
    got, want = outcome(corpus.load_dataset, path), outcome(load_dataset_scan, path)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert dataset_state(got[1]) == dataset_state(want[1])
    else:
        assert_same_error_or_overrun(got, want)


def test_container_reports_a_bad_geotag_before_a_later_cut(scratch):
    # ground 0's latitude is off the globe and ground 1's ref is cut short:
    # read one record at a time, ground 0 fails first
    grounds = ground_table([("g0", 45.0, 7.0, 0, "r0"), ("g1", 45.0, 7.0, 1, "r1")])
    tiles = TileTable(TileSpec(1.0, 32, 16), [], np.empty(0), np.empty(0),
                      np.empty(0, dtype=np.int64), np.empty((0, 2, 2, 1), dtype=np.float32))
    path = scratch / "geo.grft"
    corpus.save_dataset(PairedDataset(tiles, grounds, *pairs_of([]), {}), path)
    raw = path.read_bytes()
    start = section_at(raw, 1)
    body = bytearray(raw[start : start + struct.unpack_from("<Q", raw, start - 8)[0]])
    body[4 + 4 : 4 + 12] = struct.pack("<d", 95.0)  # after the count and g0's id
    path.write_bytes(with_section(raw, 1, bytes(body[:-1])))
    got = outcome(corpus.load_dataset, path)
    assert got == outcome(load_dataset_scan, path)
    assert f"invalid ground record (latitude 95.0 outside [-90, 90]) at byte {start + 4}" in got[1]
