"""Corrupt and truncated binary files fail with FormatError, never anything else.

Small samples of the three binary formats (dataset container, checkpoint,
embedding fixture) are cut at every length and flipped one byte at a time.
The container is read both whole and by its tile section alone. Each load
either returns or raises `FormatError` naming a byte offset.
"""

from __future__ import annotations

import io
import math
import os
import shutil
import struct
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graft import codec, corpus
from graft.cli import main
from graft.codec import FileBytes, FormatError, Reader
from _oracles import ground_table, pairs_of, section_at, subset_tiles
from graft.corpus import IntegrityError, PairedDataset, TileTable
from graft.encoder import init_params
from graft.frozen import (
    DegenerateEmbeddingError,
    FrozenEncoder,
    load_embeddings,
    save_embeddings,
    unit,
)
from graft.geo import TileSpec
from graft.train import load_checkpoint, save_checkpoint


def tiny_dataset() -> PairedDataset:
    rng = np.random.default_rng(3)
    tiles = TileTable(TileSpec(1.0, 32, 16), ["t0", "t1"], np.full(2, 45.0), np.full(2, 7.0),
                      1_600_000_000 + np.arange(2),
                      rng.standard_normal((2, 2, 2, 3)).astype(np.float32))
    grounds = ground_table([(f"g{j}", 45.0, 7.0, 1_600_000_000, f"g{j}") for j in range(3)])
    return PairedDataset(tiles, grounds, *pairs_of([[0, 1], [2]]), {"seed": 3, "note": "café"})


def tiny_table() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(4)
    return {key: unit(rng.standard_normal(4)) for key in ("a", "bé", "c")}


def write_sample(fmt: str, path) -> None:
    if fmt in ("container", "tiles"):
        corpus.save_dataset(tiny_dataset(), path)
    elif fmt == "checkpoint":
        save_checkpoint(path, init_params(3, 4, 2, 4, seed=0), {"seed": 0})
    else:
        table = tiny_table()
        save_embeddings(path, list(table), list(table.values()))


LOADERS = {
    "container": corpus.load_dataset,
    "tiles": corpus.load_tiles,
    "checkpoint": load_checkpoint,
    "fixture": load_embeddings,
}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Bytes of each sample format, plus a temporary path to write variants to."""
    root = tmp_path_factory.mktemp("formats")
    raw = {}
    for fmt in LOADERS:
        write_sample(fmt, root / fmt)
        raw[fmt] = (root / fmt).read_bytes()
    return raw, root / "variant"


def load_variant(fmt: str, path, data: bytes):
    path.write_bytes(data)
    return LOADERS[fmt](path)


@pytest.mark.parametrize("fmt", LOADERS)
def test_samples_roundtrip(fmt, samples):
    raw, path = samples
    load_variant(fmt, path, raw[fmt])


class Unseekable(io.RawIOBase):
    """A file's bytes behind a file object that cannot seek, as a pipe's."""

    def __init__(self, path, *args, **kwargs):
        self.data = io.BytesIO(Path(path).read_bytes())

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        return self.data.readinto(buf)


@pytest.mark.parametrize("fmt", LOADERS)
def test_every_truncation_raises_format_error(fmt, samples, monkeypatch):
    # every prefix length, so a cut lands inside and at the end of every field;
    # each error, text and byte offset, is the one the file gives when it is
    # spooled into memory first, as a pipe is
    raw, path = samples

    def errors() -> list[str]:
        messages = []
        for cut in range(len(raw[fmt])):
            with pytest.raises(FormatError, match=r"byte \d+") as exc:
                load_variant(fmt, path, raw[fmt][:cut])
            messages.append(str(exc.value))
        return messages

    got = errors()
    monkeypatch.setattr(codec, "open", Unseekable, raising=False)
    assert got == errors()


@pytest.mark.parametrize("fmt", LOADERS)
def test_trailing_bytes_raise_format_error(fmt, samples):
    raw, path = samples
    with pytest.raises(FormatError, match="trailing"):
        load_variant(fmt, path, raw[fmt] + b"\x00")


@pytest.mark.parametrize("fmt", LOADERS)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_single_byte_flip_loads_or_raises_format_error(fmt, samples, data):
    raw, path = samples
    flipped = bytearray(raw[fmt])
    pos = data.draw(st.integers(0, len(flipped) - 1), label="pos")
    flipped[pos] ^= data.draw(st.integers(1, 255), label="mask")
    try:
        load_variant(fmt, path, bytes(flipped))
    except FormatError as exc:
        assert "byte" in str(exc)


def test_empty_array_with_oversized_sides():
    # zero bytes to read, but numpy cannot represent the shape
    with pytest.raises(FormatError, match=r"too large at byte 0"):
        Reader(b"", "blob").array("<f8", (0, 2**40, 2**40))


def test_container_invalid_utf8_id(samples):
    raw, path = samples
    bad = bytearray(raw["container"])
    bad[20] = 0xFF  # first byte of the first tile id: magic, version, length, count, id length
    with pytest.raises(FormatError, match="UTF-8.* at byte 20"):
        load_variant("container", path, bytes(bad))


# The sample container's tile section: the tile count at byte 14, then two
# records of a 2-byte id length, a 2-byte id, a 56-byte header and 48 bytes of
# features, at bytes 18 and 126. Field offsets count from the header; the id
# length sits 4 bytes before it.
TILE_AT = (18, 126)
HEADER_FIELD_AT = {"id_length": (-4, "<H", 3), "resolution": (16, "<d", 2.0),
                   "size_px": (24, "<I", 64), "patch_px": (28, "<I", 8), "grid": (44, "<I", 3),
                   "features": (52, "<I", 4)}


def patched(raw: bytes, at: int, fmt: str, value) -> bytes:
    return raw[:at] + struct.pack(fmt, value) + raw[at + struct.calcsize(fmt):]


@pytest.mark.parametrize("fmt", ["container", "tiles"])
@pytest.mark.parametrize("count", [3, 2**32 - 1])
def test_tile_count_beyond_section_fails_before_allocating(samples, fmt, count):
    raw, path = samples
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"{count} tiles .* overrun .* at byte 14"):
            load_variant(fmt, path, patched(raw["container"], 14, "<I", count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


# a declared count whose records cannot fit: (what, offset of the count, of the failure)
COUNT_AT = {
    "fixture": lambda raw: ("records", 0, 8),
    "grounds": lambda raw: ("records", section_at(raw, 1), section_at(raw, 1) + 4),
    "assignments": lambda raw: ("assignment lists", section_at(raw, 2), section_at(raw, 2)),
}


@pytest.mark.parametrize("table", COUNT_AT)
def test_count_beyond_file_fails_near_it_before_allocating(samples, table):
    raw, path = samples
    fmt = "fixture" if table == "fixture" else "container"
    what, at, fails_at = COUNT_AT[table](raw[fmt])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=rf"{2**32 - 1} {what} of at least .* overrun "
                                              rf".* at byte {fails_at}$"):
            load_variant(fmt, path, patched(raw[fmt], at, "<I", 2**32 - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


@pytest.mark.parametrize("fmt", ["container", "tiles"])
@pytest.mark.parametrize("field", HEADER_FIELD_AT)
def test_tile_geometry_or_grid_unlike_tile_0(samples, fmt, field):
    raw, path = samples
    offset, code, value = HEADER_FIELD_AT[field]
    data = patched(raw["container"], TILE_AT[1] + 4 + offset, code, value)
    with pytest.raises(FormatError, match=f"differs from tile 0's at byte {TILE_AT[1]}"):
        load_variant(fmt, path, data)


@pytest.mark.parametrize("fmt", ["container", "tiles"])
@pytest.mark.parametrize("tile", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_tile_feature(samples, fmt, tile, bad):
    raw, path = samples
    data = patched(raw["container"], TILE_AT[tile] + 4 + 56 + 4 * 5, "<f", bad)
    with pytest.raises(FormatError, match=f"'t{tile}': non-finite .* at byte {TILE_AT[tile]}"):
        load_variant(fmt, path, data)


@pytest.mark.parametrize("fmt", ["container", "tiles"])
def test_signaling_nan_feature_fails_without_a_numpy_warning(samples, fmt):
    raw, path = samples
    data = patched(raw["container"], TILE_AT[1] + 4 + 56 + 4 * 5, "<I", 0x7F800001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=f"'t1': non-finite .* at byte {TILE_AT[1]}"):
            load_variant(fmt, path, data)


@pytest.mark.parametrize("fmt", ["container", "tiles"])
def test_invalid_utf8_id_of_a_later_tile(samples, fmt):
    raw, path = samples
    data = patched(raw["container"], TILE_AT[1] + 2, "<B", 0xFF)
    with pytest.raises(FormatError, match=f"UTF-8.* at byte {TILE_AT[1] + 2}"):
        load_variant(fmt, path, data)


@pytest.mark.parametrize("fmt", ["container", "tiles"])
def test_repeated_tile_id(samples, fmt):
    raw, path = samples
    data = patched(raw["container"], TILE_AT[1] + 3, "<B", ord("0"))  # "t1" -> "t0"
    with pytest.raises(FormatError, match=f"tile id 't0' repeats .* at byte {TILE_AT[1]}"):
        load_variant(fmt, path, data)


def load_error(fmt: str, path, data: bytes) -> str:
    try:
        load_variant(fmt, path, data)
    except FormatError as exc:
        return str(exc)
    return "loads"


# one defect of each kind a record check flags, in check order, for the tile
# record at `at`: its resolution, its id's UTF-8, its id (repeating tile 0's
# when at tile 1), its latitude and a feature
RECORD_DEFECTS = {
    "geometry": lambda at: (at + 4 + 16, "<d", 2.0),
    "utf8": lambda at: (at + 2, "<B", 0xFF),
    "repeat": lambda at: (at + 3, "<B", ord("0")),
    "off globe": lambda at: (at + 4, "<d", 95.0),
    "non-finite": lambda at: (at + 4 + 56, "<f", math.nan),
}


@pytest.mark.parametrize("fmt", ["container", "tiles"])
@pytest.mark.parametrize("first", RECORD_DEFECTS)
@pytest.mark.parametrize("second", RECORD_DEFECTS)
def test_error_does_not_depend_on_the_read_block(samples, fmt, first, second):
    # the records are checked a read block at a time; with one tile per block,
    # a defect of tile 1 that an earlier check flags still wins over a defect
    # of tile 0 that a later check flags, as with both tiles in one block
    raw, path = samples
    data = patched(raw["container"], *RECORD_DEFECTS[first](TILE_AT[0]))
    data = patched(data, *RECORD_DEFECTS[second](TILE_AT[1]))
    whole = load_error(fmt, path, data)
    with mock.patch.object(corpus, "READ_BLOCK_BYTES", 1):
        assert load_error(fmt, path, data) == whole


# an empty id is unique in a one-tile container only
@pytest.mark.parametrize("ids", [[""], ["é0", "é1"], ["t\x000", "t\x001"]])
def test_container_roundtrip_of_ids(tmp_path, ids):
    ds = subset_tiles(tiny_dataset(), range(len(ids)))
    ds.tiles.ids = ids
    corpus.save_dataset(ds, tmp_path / "ds")
    assert corpus.load_dataset(tmp_path / "ds") == ds


@pytest.mark.parametrize("ids", [["t0", "t10"], ["t0", "é0"], ["t\x00", "t1"]])
def test_save_rejects_ids_unfit_for_fixed_records(tmp_path, ids):
    ds = tiny_dataset()
    ds.tiles.ids = ids
    with pytest.raises(ValueError, match="one UTF-8 byte length"):
        corpus.save_dataset(ds, tmp_path / "ds")


def test_save_rejects_a_repeated_tile_id(tmp_path):
    # no reader accepts a container whose tiles repeat an id, so none is written
    ds = tiny_dataset()
    ds.tiles.ids = ["t1", "t1"]
    with pytest.raises(ValueError, match="tile id 't1' repeats"):
        corpus.save_dataset(ds, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def wide_dataset(n: int = 200) -> PairedDataset:
    """n tiles of the default geometry, 16 features per patch (12.5 KB a tile)."""
    rng = np.random.default_rng(5)
    spec = TileSpec()
    features = rng.standard_normal((n, spec.grid_px, spec.grid_px, 16)).astype(np.float32)
    tiles = TileTable(spec, [f"t{i:06d}" for i in range(n)], np.full(n, 45.0), np.full(n, 7.0),
                      1_600_000_000 + np.arange(n), features)
    grounds = ground_table([(f"g{i}", 45.0, 7.0, 1_600_000_000, f"g{i}") for i in range(n)])
    return PairedDataset(tiles=tiles, grounds=grounds, offsets=np.arange(n + 1),
                         ground=np.arange(n),
                         provenance={})


def traced_peak(fn, *args):
    """fn(*args) and the peak of memory allocated while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_dataset_writes_features_without_copying(tmp_path):
    ds = wide_dataset()
    _, peak = traced_peak(corpus.save_dataset, ds, tmp_path / "ds")
    assert peak < ds.tiles.features.nbytes / 4, (peak, ds.tiles.features.nbytes)
    assert corpus.load_dataset(tmp_path / "ds") == ds


def test_save_through_a_symlink_replaces_the_file_it_points_at(tmp_path):
    (tmp_path / "real").write_bytes(b"old")
    (tmp_path / "link").symlink_to(tmp_path / "real")
    save_embeddings(tmp_path / "link", ["a"], np.ones((1, 4)))
    assert (tmp_path / "link").is_symlink()
    assert load_embeddings(tmp_path / "real").keys == ["a"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]


@pytest.mark.parametrize("load", [corpus.load_tiles, corpus.load_dataset],
                         ids=["tiles", "container"])
def test_load_reads_features_by_position_within_a_quarter_of_their_bytes(tmp_path, load):
    # the validating pass reads a block of records at a time and keeps only
    # the id, lat, lon and timestamp columns; the features stay in the file
    ds = wide_dataset()
    corpus.save_dataset(ds, tmp_path / "ds")
    load(tmp_path / "ds")  # the first load also imports numpy's string functions
    out, peak = traced_peak(load, tmp_path / "ds")
    assert peak < ds.tiles.features.nbytes / 4, (peak, ds.tiles.features.nbytes)
    features = out.features if load is corpus.load_tiles else out.tiles.features
    np.testing.assert_array_equal(features[:], ds.tiles.features)
    order = np.random.default_rng(0).permutation(len(ds.tiles))[:40]
    for key in (order, 7, -1, slice(3, 90, 4), slice(150, None), slice(5, 5)):
        got = features[key]
        np.testing.assert_array_equal(got, ds.tiles.features[key])
        assert got.dtype == np.float32 and got.flags.c_contiguous and got.flags.aligned
    with pytest.raises(IndexError):
        features[len(ds.tiles)]


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory, world_dir, small_world):
    """A 2000-tile container (25 MB of features) whose grounds embed with the
    world's fixture, a checkpoint for it, and its feature bytes."""
    root = tmp_path_factory.mktemp("wide")
    ds = wide_dataset(2000)
    keys = small_world.ground_encoder.keys
    ds.grounds.refs = [keys[i % len(keys)] for i in range(len(ds.grounds))]
    corpus.save_dataset(ds, root / "ds.grft")
    save_checkpoint(root / "ck.grcp", init_params(16, 32, 16, 196, seed=0), {})
    inputs = ["--world", str(world_dir), "--dataset", str(root / "ds.grft"), "--out", str(root)]
    return root, inputs, ds.tiles.features.nbytes


@pytest.mark.parametrize("command", [["train", "--epochs", "1"], ["eval", "classify"],
                                     ["eval", "segment"]], ids=" ".join)
def test_command_peak_stays_under_a_quarter_of_the_features(wide_run, command):
    # train gathers each batch's records and eval scores a block of them at a
    # time, so neither holds the container's features
    root, inputs, feature_bytes = wide_run
    checkpoint = ["--checkpoint", str(root / "ck.grcp")] if command[0] == "eval" else []
    code, peak = traced_peak(main, [*command, *inputs, *checkpoint])
    assert code == 0
    assert peak < feature_bytes / 4, (peak, feature_bytes)


def test_build_peak_stays_under_a_quarter_of_the_features(tmp_path):
    # the sparse_image bench world: build writes its tiles a block at a time
    world = ["--set", "world.extent_km=30", "--set", "world.n_ground=3200"]
    assert main(["synth", "--out", str(tmp_path / "world"), *world]) == 0
    code, peak = traced_peak(main, ["build", "--world", str(tmp_path / "world"),
                                    "--out", str(tmp_path / "data"), *world])
    assert code == 0
    tiles = corpus.load_tiles(tmp_path / "data" / "dataset.grft")
    feature_bytes = 4 * math.prod(tiles.features.shape)
    assert peak < feature_bytes / 4, (peak, feature_bytes)


def test_file_bytes_reads_by_position_and_checks_each_count(tmp_path):
    data = bytes(range(256)) * 40
    (tmp_path / "f").write_bytes(data)
    fb = FileBytes(tmp_path / "f", "sample")
    assert len(fb) == len(data) and fb[0:0] == b"" and fb[5:300] == data[5:300]
    buf = np.empty(3, dtype="<f4")
    fb.readinto(17, buf)
    assert buf.tobytes() == data[17:29]
    os.truncate(tmp_path / "f", 100)  # after opening: the reads fail with their offset
    with pytest.raises(FormatError, match="sample truncated at byte 90: wanted 20 bytes, 10 left"):
        fb[90:110]
    with pytest.raises(FormatError, match="sample truncated at byte 96: wanted 12 bytes, 4 left"):
        fb.readinto(96, buf)
    fb.close()
    with pytest.raises(FileNotFoundError):
        FileBytes(tmp_path / "missing", "sample")


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("fmt", LOADERS)
def test_a_pipe_loads_as_its_file_does(fmt, samples):
    # a pipe cannot seek, so numpy cannot read it (`--dataset <(...)` in a shell)
    raw, path = samples
    want = load_variant(fmt, path, raw[fmt])
    r, w = os.pipe()
    try:
        os.write(w, raw[fmt])  # each sample fits in the pipe's buffer
        os.close(w)
        assert repr(LOADERS[fmt](f"/dev/fd/{r}")) == repr(want)  # they hold arrays
    finally:
        os.close(r)


@pytest.mark.parametrize("name, shape", [("b1", (5,)), ("w2", (4, 2)), ("pool_logits", (2, 2))])
def test_checkpoint_inconsistent_shapes(samples, name, shape):
    _, path = samples
    params = init_params(3, 4, 2, 4, seed=0)
    setattr(params, name, np.zeros(shape))
    save_checkpoint(path, params, {})
    with pytest.raises(FormatError, match="do not fit one encoder"):
        load_checkpoint(path)


def fixture_entry(raw: bytes, bad: np.ndarray) -> bytes:
    """The sample fixture with its first vector replaced by `bad`."""
    (klen,) = struct.unpack_from("<H", raw, 8)
    start = 8 + 2 + klen
    return raw[:start] + bad.astype("<f4").tobytes() + raw[start + 4 * len(bad):]


BAD_VECTORS = [[math.nan, 0, 0, 1], [0, math.inf, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("bad", BAD_VECTORS)
def test_fixture_bad_entry_names_key_and_offset(samples, bad):
    raw, path = samples
    data = fixture_entry(raw["fixture"], np.array(bad))
    with pytest.raises(FormatError, match=r"entry 'a' has norm .* at byte 8"):
        load_variant("fixture", path, data)


def test_fixture_duplicate_key(samples):
    raw, path = samples
    table = tiny_table()
    body = b"".join(struct.pack("<H", 1) + b"a" + table["a"].astype("<f4").tobytes()
                    for _ in range(2))
    with pytest.raises(FormatError, match="duplicate key 'a' at byte 27"):
        load_variant("fixture", path, struct.pack("<II", 2, 4) + body)


def test_fixture_empty_table(samples):
    _, path = samples
    with pytest.raises(FormatError, match="empty"):
        load_variant("fixture", path, struct.pack("<II", 0, 4))


@pytest.mark.parametrize("bad", BAD_VECTORS)
def test_unit_rejects_non_finite_and_zero(bad):
    v = np.array(bad, dtype=np.float64)
    with pytest.raises(DegenerateEmbeddingError):
        unit(v)
    with pytest.raises(ValueError, match="not unit-norm"):
        FrozenEncoder(["x"], v[None])


@pytest.mark.parametrize("text", ["{", '{"files": {}}', "[]", '{"files": {"field": 1}}',
                                  "\udcff"])
def test_malformed_world_json_is_integrity_error(world_dir, tmp_path, text):
    broken = tmp_path / "w"
    shutil.copytree(world_dir, broken)
    (broken / "world.json").write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(IntegrityError, match="world.json"):
        corpus.load_world_dir(broken)

