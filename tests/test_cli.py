from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graft
from _oracles import (class_grid_per_tile, density_scores_per_cell, encoder_forward,
                      load_density_grid, majority_class_per_tile,
                      min_center_separation_per_tile, per_class_accuracy, subset_tiles,
                      with_tile_pairs)
from graft import corpus, encoder, evaluation
from graft.cli import _min_center_separation_m, main
from graft.config import RunConfig
from graft.encoder import SatEncoderParams, embed_images, init_params
from graft.frozen import PromptSet, embed_text, load_embeddings, save_embeddings
from graft.geo import GeoPoint, TileSpec
from graft.train import load_checkpoint, save_checkpoint


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def oracle_params(dim: int, n_patches: int, alpha: float = 3.0) -> SatEncoderParams:
    """Hand-built encoder mapping a one-hot feature exactly onto its basis vector."""
    eye = np.eye(dim)
    return SatEncoderParams(
        w1=alpha * eye,
        b1=np.zeros(dim),
        w2=eye / np.tanh(alpha),
        b2=np.zeros(dim),
        pool_logits=np.zeros(n_patches),
    )


WORLD_ARGS = [
    "--set", "world.noise_sigma=0",
    "--set", "world.n_ground=150",
    "--set", "world.extent_km=4",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A noiseless world, built dataset and oracle checkpoint, all via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    world_dir = root / "world"
    data_dir = root / "data"
    assert main(["synth", "--out", str(world_dir), *WORLD_ARGS]) == 0
    assert main(["build", "--world", str(world_dir), "--out", str(data_dir),
                 *WORLD_ARGS]) == 0
    ckpt = root / "oracle.grcp"
    save_checkpoint(ckpt, oracle_params(16, 196), {"seed": 0, "loss_variant": "oracle"})
    return root, world_dir, data_dir / "dataset.grft", ckpt


def test_synth_outputs_and_summary(pipeline, capsys):
    _, world_dir, _, _ = pipeline
    for name in ("ground_manifest.txt", "snapshot_manifest.txt", "field.json",
                 "ground_embeddings.bin", "text_embeddings.bin", "world.json",
                 "run_config.txt"):
        assert (world_dir / name).exists(), name
    meta = json.loads((world_dir / "world.json").read_text())
    assert meta["config"]["n_classes"] == 8
    assert meta["n_ground"] == 150


def test_synth_same_seed_identical_hashes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), "--seed", "5", *WORLD_ARGS]) == 0
    assert main(["synth", "--out", str(b), "--seed", "5", *WORLD_ARGS]) == 0
    for name in ("ground_manifest.txt", "snapshot_manifest.txt", "field.json",
                 "ground_embeddings.bin", "text_embeddings.bin", "world.json"):
        assert file_hash(a / name) == file_hash(b / name), name


def test_synth_keeps_the_first_seed_draw_when_none_fills_every_class(tmp_path):
    # 600 seeds on a 48 x 48 balancing raster: no draw of the 500 gives every
    # class a raster point, so the first draw is the field's
    assert main(["synth", "--out", str(tmp_path), "--set", "world.classes=600",
                 "--set", "world.embed_dim=600", "--set", "world.feature_dim=600",
                 "--set", "world.n_ground=20"]) == 0
    assert len(corpus.load_feature_field(tmp_path / "field.json").class_names) == 600


def test_synth_unwritable_dir():
    assert main(["synth", "--out", "/proc/definitely/forbidden"]) == 3


def test_unknown_config_key_exits_2():
    assert main(["synth", "--out", "ignored", "--set", "world.bogus=1"]) == 2


# One rejected value of every config key, each run through a command that does
# not read that key: every command checks every key before it writes anything.
UNREAD_KEY_REJECTS = {
    "seed": ("map", "-1"),
    "world.classes": ("map", "1"),
    "world.embed_dim": ("build", "4"),  # fewer dims than the 8 classes
    "world.feature_dim": ("train", "0"),
    "world.extent_km": ("eval", "nan"),
    "world.n_ground": ("map", "0"),
    "world.noise_sigma": ("build", "-0.1"),
    "world.snapshots": ("train", "0"),
    "world.center_lat": ("eval", "inf"),
    "world.center_lon": ("map", "nan"),
    "tile.resolution_m": ("synth", "0"),
    "tile.size_px": ("train", "-224"),
    "tile.patch_px": ("synth", "0"),
    "pair.cap": ("synth", "0"),
    "pair.min_sep_px": ("map", "-1"),
    "loss.variant": ("synth", "bogus"),
    "loss.tau": ("build", "0"),
    "train.epochs": ("synth", "-1"),
    "train.peak_lr": ("synth", "nan"),
    "train.warmup_steps": ("build", "-1"),
    "train.weight_decay": ("map", "inf"),
    "train.batch_size": ("synth", "1"),
    "train.hidden_dim": ("eval", "0"),
    "prompts": ("build", "no slot"),
    "map.cell_px": ("synth", "0"),
}


def test_every_config_key_has_a_rejected_value():
    assert set(UNREAD_KEY_REJECTS) == set(RunConfig().values)


@pytest.mark.parametrize(
    "command, override",
    [
        ("train", "loss.tau=0"),  # LossConfig
        ("train", "train.peak_lr=-1"),  # TrainSchedule
        ("train", "train.batch_size=1"),  # a one-tile batch has no negatives
        ("train", "loss.tau=inf"),  # non-finite values are out of every domain
        ("train", "loss.tau=nan"),
        ("train", "train.peak_lr=nan"),
        ("train", "train.peak_lr=inf"),
        ("train", "train.weight_decay=nan"),
        ("synth", "world.classes=1"),  # SynthWorldConfig
        ("build", "tile.patch_px=15"),  # TileSpec: 224 px is not a multiple
        ("synth", "world.center_lat=95"),
        ("synth", "world.center_lat=-90"),  # SynthWorldConfig: the extent crosses the pole
        ("synth", "world.extent_km=nan"),
        ("synth", "world.noise_sigma=inf"),
        ("synth", "world.center_lon=nan"),
        ("synth", "world.center_lon=179.95"),  # the 10 km extent crosses the antimeridian
        ("synth", "world.center_lon=-179.99"),
        ("synth", "world.center_lon=540"),  # wraps to -180
        ("build", "tile.resolution_m=nan"),
        ("build", "tile.resolution_m=inf"),
        ("build", "pair.cap=0"),
        ("build", "pair.min_sep_px=-5"),
        ("train", "train.hidden_dim=0"),
        ("train", "train.warmup_steps=-1"),  # not "derive": only 0 is
        ("synth", "prompts=a {x} {label}"),  # a slot str.format cannot fill
        ("synth", "prompts=a {{label}}|b {label}"),  # an escaped slot renders no label
        *((command, f"{key}={value}") for key, (command, value) in UNREAD_KEY_REJECTS.items()),
    ],
)
def test_rejected_config_value_exits_2(pipeline, tmp_path, capsys, command, override):
    _, world_dir, dataset, ckpt = pipeline
    world, data, checkpoint = (["--world", str(world_dir)], ["--dataset", str(dataset)],
                               ["--checkpoint", str(ckpt)])
    inputs = {
        "synth": [],
        "build": world,
        "train": [*world, *data],
        "eval": ["classify", *world, *data, *checkpoint],
        "map": ["water", *world, *checkpoint],
    }[command]
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(tmp_path / "o"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_build_report(pipeline, capsys):
    root, world_dir, _, _ = pipeline
    capsys.readouterr()
    assert main(["build", "--world", str(world_dir), "--out", str(root / "data2"),
                 *WORLD_ARGS]) == 0
    out = capsys.readouterr().out
    assert "tiles:" in out and "pairs:" in out
    assert "max grounds/tile:" in out
    max_grounds = int(out.split("max grounds/tile:")[1].split()[0])
    assert max_grounds <= 25
    assert "min center separation" in out and "ok" in out


@pytest.mark.parametrize("n, lat_steps", [(2, 0), (2, 1), (3, 0), (40, 0), (300, 0),
                                          (300, 7), (300, 1), (60, 3)])
def test_min_center_separation_sweep_matches_all_pairs(n, lat_steps):
    # lat_steps > 0 snaps latitudes to that many values, so many tiles tie in
    # latitude (one value: every tile on one parallel); duplicated points tie at 0
    rng = np.random.default_rng(n * 10 + lat_steps)
    for _ in range(5):
        lats = rng.uniform(42.9, 43.1, n)
        if lat_steps:
            lats = rng.choice(np.linspace(42.9, 43.1, lat_steps), n)
        lons = rng.uniform(-76.1, -75.9, n)
        want = min_center_separation_per_tile(lats, lons)
        assert _min_center_separation_m(lats, lons) == want
        assert _min_center_separation_m(lats[::-1], lons[::-1]) == want
        if n > 2:
            dup = np.append(lats, lats[n // 2]), np.append(lons, lons[n // 2])
            assert _min_center_separation_m(*dup) == min_center_separation_per_tile(*dup) == 0.0


def test_build_corrupt_manifest_exits_4(pipeline, tmp_path):
    _, world_dir, _, _ = pipeline
    import shutil

    broken = tmp_path / "broken_world"
    shutil.copytree(world_dir, broken)
    (broken / "ground_manifest.txt").write_text("this is not a manifest\n")
    assert main(["build", "--world", str(broken), "--out", str(tmp_path / "d")]) == 4


def test_train_out_of_range_assignment_exits_4(pipeline, tmp_path, capsys):
    _, world_dir, dataset, _ = pipeline
    ds = corpus.load_dataset(dataset)
    ds = with_tile_pairs(ds, 1, [*ds.ground[ds.offsets[1] : ds.offsets[2]], 10**6])
    bad = tmp_path / "bad.grft"
    corpus.save_dataset(ds, bad)
    capsys.readouterr()
    assert main(["train", "--world", str(world_dir), "--dataset", str(bad),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 4
    err = capsys.readouterr().err
    assert f"tile {ds.tiles.ids[1]}" in err and "1000000 out of range" in err


def test_train_tile_without_grounds_exits_4(pipeline, tmp_path, capsys):
    _, world_dir, dataset, _ = pipeline
    ds = corpus.load_dataset(dataset)
    ds = with_tile_pairs(ds, 2, [])
    bad = tmp_path / "bad.grft"
    corpus.save_dataset(ds, bad)
    capsys.readouterr()
    assert main(["train", "--world", str(world_dir), "--dataset", str(bad),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"tile {ds.tiles.ids[2]}: no grounds" in err


def test_eval_empty_container_exits_4(pipeline, tmp_path, capsys):
    _, world_dir, dataset, ckpt = pipeline
    empty = tmp_path / "empty.grft"
    corpus.save_dataset(subset_tiles(corpus.load_dataset(dataset), []), empty)
    capsys.readouterr()
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset", str(empty),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and "holds no tiles" in err


@pytest.mark.parametrize("command", [["eval", "retrieve"], ["eval", "classify"], ["train"]],
                         ids=["retrieve", "classify", "train"])
def test_repeated_tile_id_exits_4(pipeline, tmp_path, capsys, command):
    # the writer refuses a repeated id, so tile 1's id is patched in a saved container
    _, world_dir, dataset, ckpt = pipeline
    first, second = (tid.encode() for tid in corpus.load_dataset(dataset).tiles.ids[:2])
    raw = dataset.read_bytes()
    at = raw.index(struct.pack("<H", len(second)) + second) + 2  # tile 1's id, after its length
    bad = tmp_path / "repeat.grft"
    bad.write_bytes(raw[:at] + first + raw[at + len(first):])
    inputs = ["--epochs", "1"] if command == ["train"] else ["--checkpoint", str(ckpt)]
    capsys.readouterr()
    assert main([*command, "--world", str(world_dir), "--dataset", str(bad), *inputs,
                 "--out", str(tmp_path / "o"), *WORLD_ARGS]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"tile id {first.decode()!r} repeats" in err


@pytest.mark.parametrize("n_tiles", [0, 1])
def test_train_on_fewer_than_two_tiles_exits_4(pipeline, tmp_path, capsys, n_tiles):
    # a lone tile has no negative, so no batch would hold it
    _, world_dir, dataset, _ = pipeline
    small = tmp_path / "small.grft"
    corpus.save_dataset(subset_tiles(corpus.load_dataset(dataset), range(n_tiles)), small)
    capsys.readouterr()
    assert train_on(world_dir, small, tmp_path / "run") == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"dataset holds {n_tiles} tile(s)" in err
    assert not (tmp_path / "run" / "checkpoint.grcp").exists()


def test_train_zero_epochs_equals_init(pipeline, tmp_path):
    root, world_dir, dataset, _ = pipeline
    out = tmp_path / "run0"
    assert main(["train", "--world", str(world_dir), "--dataset", str(dataset),
                 "--out", str(out), "--epochs", "0", "--seed", "3"]) == 0
    params, prov = load_checkpoint(out / "checkpoint.grcp")
    init = init_params(16, 32, 16, 196, seed=3)
    for name, arr in init.arrays().items():
        assert arr.tobytes() == params.arrays()[name].tobytes()
    assert (out / "history.txt").read_text() == ""
    assert prov["loss_variant"] == "image_default"


def test_train_history_and_l2_provenance(pipeline, tmp_path):
    root, world_dir, dataset, _ = pipeline
    out = tmp_path / "run_l2"
    assert main(["train", "--world", str(world_dir), "--dataset", str(dataset),
                 "--out", str(out), "--epochs", "2", "--loss", "l2"]) == 0
    history = (out / "history.txt").read_text().splitlines()
    assert len(history) == 2
    _, prov = load_checkpoint(out / "checkpoint.grcp")
    assert prov["loss_variant"] == "l2"


def test_train_reproducible_bytes(pipeline, tmp_path):
    root, world_dir, dataset, _ = pipeline
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--world", str(world_dir), "--dataset", str(dataset),
                     "--out", str(out), "--epochs", "2", "--seed", "11"]) == 0
        outs.append(out)
    assert file_hash(outs[0] / "checkpoint.grcp") == file_hash(outs[1] / "checkpoint.grcp")
    assert file_hash(outs[0] / "history.txt") == file_hash(outs[1] / "history.txt")


def test_eval_classify_oracle_accuracy_one(pipeline, tmp_path, capsys):
    root, world_dir, dataset, ckpt = pipeline
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    assert "accuracy=1.0000" in capsys.readouterr().out
    metrics = dict(
        line.split(maxsplit=1)
        for line in (out / "classify_metrics.txt").read_text().splitlines()
    )
    assert float(metrics["accuracy"]) == 1.0


def test_eval_segment_oracle_perfect(pipeline, tmp_path):
    root, world_dir, dataset, ckpt = pipeline
    out = tmp_path / "seg"
    assert main(["eval", "segment", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    lines = (out / "segment_metrics.txt").read_text().splitlines()
    mean = float(lines[-1].split()[1])
    assert mean == 1.0


def test_eval_retrieve_writes_rankings(pipeline, tmp_path):
    root, world_dir, dataset, ckpt = pipeline
    out = tmp_path / "ret"
    assert main(["eval", "retrieve", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    rows = (out / "retrieval_results.txt").read_text().splitlines()
    assert len(rows) == 8
    query, ids, scores = rows[0].split("\t")
    assert len(ids.split(",")) == len(scores.split(","))
    metric_rows = (out / "retrieval_metrics.txt").read_text().splitlines()
    mean_ap100, mean_ap20 = (float(x) for x in metric_rows[-1].split()[1:])
    assert mean_ap20 >= 0.95
    assert mean_ap100 >= 0.95


def test_eval_segment_blocks_match_per_tile_labels(pipeline, tmp_path, monkeypatch):
    root, world_dir, dataset, _ = pipeline
    params = init_params(16, 32, 16, 196, seed=4)
    ckpt = tmp_path / "random.grcp"
    save_checkpoint(ckpt, params, {})
    world = corpus.load_world_dir(world_dir)
    ds = corpus.load_dataset(dataset)
    block = 7  # tiles per patch-level forward
    assert len(ds.tiles) > block and len(ds.tiles) % block  # ends in a partial block
    # the labels, and the ground-truth grids, which eval takes a block of tiles at a time
    seen = {"gt": []}
    segment, class_grids = evaluation.segment_tiles, corpus.class_grids
    monkeypatch.setattr(evaluation, "segment_tiles",
                        lambda *args: seen.setdefault("pred", segment(*args)))
    monkeypatch.setattr(corpus, "class_grids",
                        lambda *args: seen["gt"].append(class_grids(*args)) or seen["gt"][-1])
    monkeypatch.setattr(encoder, "IMAGE_BLOCK_ROWS", block * 196)
    assert main(["eval", "segment", "--world", str(world_dir), "--dataset", str(dataset),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path / "seg")]) == 0

    class_embs = evaluation.class_embeddings(world.text_encoder, world.class_names, PromptSet())
    want = [evaluation.segment_patches(encoder_forward(params, grid)[0], class_embs)[0]
            for grid in ds.tiles.features]
    np.testing.assert_array_equal(seen["pred"].ravel(), np.concatenate(want, axis=None))
    gt = [class_grid_per_tile(world.field, ds.tiles.spec, GeoPoint(lat, lon))
          for lat, lon in zip(ds.tiles.lat, ds.tiles.lon)]
    np.testing.assert_array_equal(np.concatenate(seen["gt"], axis=None),
                                  np.concatenate(gt, axis=None))
    # the per-block counts give the accuracies of the whole arrays
    accs, mean = per_class_accuracy(np.concatenate(want), np.concatenate(gt))
    assert (tmp_path / "seg" / "segment_metrics.txt").read_text() == "".join(
        f"{world.class_names[c]} {accs[c]!r}\n" for c in sorted(accs)) + f"mean {mean!r}\n"


def test_eval_ground_truth_is_each_tiles_majority_class(pipeline, tmp_path, monkeypatch):
    # half the tiles split two classes 98/98, so ties are common: the lower
    # class wins, as in one bincount per tile
    _, world_dir, dataset, ckpt = pipeline
    rng = np.random.default_rng(4)
    grids = []

    def class_grids(fld, spec, lat, lon):
        labels = rng.integers(0, len(fld.class_names), (len(lat), 196))
        pairs = rng.integers(0, len(fld.class_names), (len(lat) // 2, 2))
        labels[: len(pairs)] = np.repeat(pairs, 98, axis=1)
        grids.append(labels.reshape(-1, 14, 14))
        return grids[-1]

    monkeypatch.setattr(corpus, "class_grids", class_grids)
    out = tmp_path / "eval"
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset", str(dataset),
                 "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    gts = [int(line.split()[2]) for line in (out / "classify_results.txt").read_text().splitlines()]
    assert gts == majority_class_per_tile(np.concatenate(grids)).tolist()


def test_eval_random_encoder_near_chance(pipeline):
    # a random untrained encoder classifies a balanced 8-class world at chance;
    # averaged over many seeds the accuracy settles near 1/8
    root, world_dir, dataset, _ = pipeline
    world = corpus.load_world_dir(world_dir)
    tiles = corpus.load_tiles(dataset)
    class_embs = evaluation.class_embeddings(world.text_encoder, world.class_names, PromptSet())
    gts = evaluation.majority_labels(corpus.class_grids(world.field, tiles.spec, tiles.lat,
                                                        tiles.lon), len(world.class_names))
    accs = []
    for seed in range(24):
        params = init_params(16, 32, 16, 196, seed=1000 + seed)
        preds, _ = evaluation.classify(embed_images(params, tiles.features), class_embs)
        accs.append(float(np.mean(preds == gts)))
    assert abs(np.mean(accs) - 0.125) <= 0.05


def test_eval_missing_checkpoint_exits_6(pipeline, tmp_path):
    root, world_dir, dataset, _ = pipeline
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(tmp_path / "nope.grcp"),
                 "--out", str(tmp_path / "e")]) == 6


def test_eval_dimension_mismatch_exits_6(pipeline, tmp_path, capsys):
    root, world_dir, dataset, _ = pipeline
    bad = tmp_path / "bad.grcp"
    save_checkpoint(bad, init_params(8, 4, 8, 196, seed=0), {})
    capsys.readouterr()
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "e")]) == 6
    assert "text fixture has 16" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["map", "classify"])
def test_patch_count_mismatch_exits_6(pipeline, tmp_path, capsys, command):
    # map and eval share one compatibility check and its messages
    root, world_dir, dataset, _ = pipeline
    bad = tmp_path / "bad.grcp"
    save_checkpoint(bad, init_params(16, 32, 16, 100, seed=0), {})
    capsys.readouterr()
    assert run_reader(command, world_dir, (root, world_dir, dataset, bad), tmp_path / "o") == 6
    err = capsys.readouterr().err
    assert "Traceback" not in err and "pools 100 patches but tiles have 196" in err


@pytest.mark.parametrize("cut", [7, 12])
def test_eval_corrupt_checkpoint_exits_6(pipeline, tmp_path, capsys, cut):
    root, world_dir, dataset, ckpt = pipeline
    bad = tmp_path / "cut.grcp"
    bad.write_bytes(ckpt.read_bytes()[:cut])
    capsys.readouterr()
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "e")]) == 6
    assert "truncated at byte" in capsys.readouterr().err


def train_on(world_dir, dataset, out) -> int:
    return main(["train", "--world", str(world_dir), "--dataset", str(dataset),
                 "--out", str(out), "--epochs", "1"])


def corrupt_copy(world_dir, tmp_path, name: str, corrupt):
    """A copy of the world directory with `name` rewritten as corrupt(bytes)."""
    broken = tmp_path / "broken_world"
    shutil.copytree(world_dir, broken)
    path = broken / name
    path.write_bytes(bytes(corrupt(bytearray(path.read_bytes()))))
    return broken


def _first_vector(raw: bytearray) -> slice:
    """Bytes of a fixture's first vector: 16 float32s, after the header and first key."""
    (klen,) = struct.unpack_from("<H", raw, 8)
    return slice(10 + klen, 10 + klen + 4 * 16)


def _flip_key_length(raw):
    raw[8:10] = bytes(b ^ 0xFF for b in raw[8:10])
    return raw


def _nan_entry(raw):
    start = _first_vector(raw).start
    raw[start : start + 4] = struct.pack("<f", math.nan)
    return raw


def _zero_entry(raw):
    vec = _first_vector(raw)
    raw[vec] = bytes(vec.stop - vec.start)
    return raw


FIXTURE_CORRUPTIONS = pytest.mark.parametrize(
    "corrupt", [lambda raw: raw[:-3], _flip_key_length, _nan_entry, _zero_entry],
    ids=["cut", "key_length", "nan", "zero"])


def run_reader(command: str, world_dir, pipeline, out) -> int:
    """Run one command that reads the world's field and text fixture."""
    _, _, dataset, ckpt = pipeline
    if command == "map":
        return main(["map", "water", "--world", str(world_dir), "--checkpoint", str(ckpt),
                     "--out", str(out), *WORLD_ARGS])
    return main(["eval", command, "--world", str(world_dir), "--dataset", str(dataset),
                 "--checkpoint", str(ckpt), "--out", str(out)])


@FIXTURE_CORRUPTIONS
def test_train_corrupt_fixture_exits_4(pipeline, tmp_path, capsys, corrupt):
    # train reads the ground fixture and no other world file
    _, world_dir, dataset, _ = pipeline
    broken = corrupt_copy(world_dir, tmp_path, "ground_embeddings.bin", corrupt)
    capsys.readouterr()
    assert train_on(broken, dataset, tmp_path / "run") == 4
    assert "ground_embeddings.bin" in capsys.readouterr().err


@FIXTURE_CORRUPTIONS
@pytest.mark.parametrize("command", ["classify", "map"])
def test_corrupt_text_fixture_exits_4(pipeline, tmp_path, capsys, command, corrupt):
    _, world_dir, _, _ = pipeline
    broken = corrupt_copy(world_dir, tmp_path, "text_embeddings.bin", corrupt)
    capsys.readouterr()
    assert run_reader(command, broken, pipeline, tmp_path / "run") == 4
    assert "text_embeddings.bin" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{", '{"files": {}}'])
def test_train_malformed_world_json_exits_4(pipeline, tmp_path, capsys, text):
    _, world_dir, dataset, _ = pipeline
    broken = corrupt_copy(world_dir, tmp_path, "world.json", lambda _: text.encode())
    capsys.readouterr()
    assert train_on(broken, dataset, tmp_path / "run") == 4
    assert "world.json" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [('{"format": "voronoi-onehot-field"}', "'class_names'"),
                                         ("[]", "not a JSON object")],
                         ids=["missing_key", "not_object"])
@pytest.mark.parametrize("command", ["classify", "map"])
def test_malformed_field_json_exits_4(pipeline, tmp_path, capsys, command, text, named):
    _, world_dir, _, _ = pipeline
    broken = corrupt_copy(world_dir, tmp_path, "field.json", lambda _: text.encode())
    capsys.readouterr()
    assert run_reader(command, broken, pipeline, tmp_path / "run") == 4
    err = capsys.readouterr().err
    assert "field.json" in err and named in err


def pruned_copy(world_dir, tmp_path, *names):
    """A copy of the world directory without the named files."""
    pruned = tmp_path / "pruned_world"
    shutil.copytree(world_dir, pruned)
    for name in names:
        (pruned / name).unlink()
    return pruned


@pytest.mark.parametrize("task", ["classify", "retrieve", "segment"])
def test_eval_reads_no_ground_files(pipeline, tmp_path, task):
    _, world_dir, _, _ = pipeline
    pruned = pruned_copy(world_dir, tmp_path, "ground_manifest.txt", "ground_embeddings.bin")
    outs = [tmp_path / "full", tmp_path / "pruned"]
    for world, out in zip((world_dir, pruned), outs):
        assert run_reader(task, world, pipeline, out) == 0
    written = sorted(p.name for p in outs[0].iterdir())
    assert written == sorted(p.name for p in outs[1].iterdir())
    for name in written:
        assert file_hash(outs[0] / name) == file_hash(outs[1] / name), name


def test_train_reads_only_the_ground_fixture(pipeline, tmp_path):
    _, world_dir, dataset, _ = pipeline
    pruned = pruned_copy(world_dir, tmp_path, "field.json", "text_embeddings.bin",
                         "ground_manifest.txt", "snapshot_manifest.txt")
    outs = [tmp_path / "full", tmp_path / "pruned"]
    for world, out in zip((world_dir, pruned), outs):
        assert train_on(world, dataset, out) == 0
    assert file_hash(outs[0] / "checkpoint.grcp") == file_hash(outs[1] / "checkpoint.grcp")


@pytest.mark.parametrize("loss", ["image", "pixel"])
def test_train_divergence_exits_5(pipeline, tmp_path, capsys, loss):
    _, world_dir, dataset, _ = pipeline
    capsys.readouterr()
    assert main(["train", "--world", str(world_dir), "--dataset", str(dataset),
                 "--out", str(tmp_path / "run"), "--loss", loss,
                 "--set", "train.peak_lr=1e9"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("training diverged: step ") and "not unit-norm" in err


def test_train_divergence_stderr_is_one_line(pipeline, tmp_path):
    # the diverged outputs overflow inside numpy; no RuntimeWarning may reach stderr
    _, world_dir, dataset, _ = pipeline
    src = str(Path(graft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "graft.cli", "train", "--world", str(world_dir), "--dataset",
         str(dataset), "--out", str(tmp_path / "run"), "--loss", "image",
         "--set", "train.peak_lr=1e9"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 5
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr.startswith("training diverged: step ") and done.stderr.count("\n") == 1


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_pixel_checkpoint_does_not_depend_on_the_blas_thread_variables(tmp_path):
    # a world that saturates the 25-ground cap: a batch's pixel-loss logits are
    # an (M, D) @ (D, M) product with M near 800, which a threaded OpenBLAS splits
    # by thread; unless the variables are set, graft runs BLAS on one thread
    capped = ["--seed", "0", "--set", "world.n_ground=1500", "--set", "world.extent_km=1.5"]
    world, data = tmp_path / "world", tmp_path / "data"
    assert main(["synth", "--out", str(world), *capped]) == 0
    assert main(["build", "--world", str(world), "--out", str(data), *capped]) == 0
    src = str(Path(graft.__file__).resolve().parents[1])
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    unset["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    digests = []
    for env in (unset, dict(unset, OPENBLAS_NUM_THREADS="1")):
        out = tmp_path / f"run{len(digests)}"
        done = subprocess.run(
            [sys.executable, "-m", "graft.cli", "train", "--world", str(world), "--dataset",
             str(data / "dataset.grft"), "--out", str(out), "--loss", "pixel", "--epochs", "1",
             *capped],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests.append(file_hash(out / "checkpoint.grcp"))
    assert digests[0] == digests[1]


def test_train_corrupt_container_exits_4(pipeline, tmp_path, capsys):
    _, world_dir, dataset, _ = pipeline
    raw = bytearray(dataset.read_bytes())
    raw[20] = 0xFF  # the first byte of the first tile id is no longer UTF-8
    bad = tmp_path / "bad.grft"
    bad.write_bytes(bytes(raw))
    capsys.readouterr()
    assert train_on(world_dir, bad, tmp_path / "run") == 4
    assert "at byte 20" in capsys.readouterr().err


def test_map_density_matches_ground_truth(pipeline, tmp_path, capsys):
    root, world_dir, _, ckpt = pipeline
    out = tmp_path / "maps"
    world = corpus.load_world_dir(world_dir)
    grids = {}
    for name in world.class_names:
        assert main(["map", name, "--world", str(world_dir), "--checkpoint",
                     str(ckpt), "--out", str(out), *WORLD_ARGS]) == 0
        grids[name] = load_density_grid(out / f"density_{name}.grid")

    first = next(iter(grids.values()))
    stack = np.stack([grids[n].scores for n in world.class_names])
    # per cell, the best-scoring query is the cell's majority ground-truth class
    rows, cols = first.scores.shape
    for r in range(rows):
        for c in range(cols):
            lat = first.origin.lat - r * first.cell_m / 111320.0
            lon = first.origin.lon + c * first.cell_m / (
                111320.0 * np.cos(np.radians(world.field.origin.lat))
            )
            labels = world.field.class_grid(TileSpec(), GeoPoint(lat, lon))
            gt = np.bincount(labels.ravel()).argmax()
            assert int(np.argmax(stack[:, r, c])) == int(gt)


def test_map_deterministic_and_shapes(pipeline, tmp_path):
    root, world_dir, _, ckpt = pipeline
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    for out in (out1, out2):
        assert main(["map", "water", "--world", str(world_dir), "--checkpoint",
                     str(ckpt), "--out", str(out), *WORLD_ARGS]) == 0
    assert file_hash(out1 / "density_water.grid") == file_hash(out2 / "density_water.grid")
    assert file_hash(out1 / "density_water.pgm") == file_hash(out2 / "density_water.pgm")
    dmap = load_density_grid(out1 / "density_water.grid")
    # 4 km extent, 224 m cells, first center half a cell inside the bounds
    per_axis = int((4000.0 - 112.0) // 224.0) + 1
    assert dmap.scores.shape == (per_axis, per_axis)


def test_map_scores_match_per_cell_oracle(world_dir, small_world, tmp_path, monkeypatch):
    # a noisy world and a random encoder; 18x18 cells in blocks of 5 end in a
    # partial block, and a rerun in the default blocks writes the same bytes
    params = init_params(16, 32, 16, 196, seed=3)
    ckpt = tmp_path / "random.grcp"
    save_checkpoint(ckpt, params, {})
    outs = [tmp_path / "m5", tmp_path / "m64"]
    for out, block in zip(outs, (5, corpus.FIELD_BLOCK_TILES)):
        monkeypatch.setattr(corpus, "FIELD_BLOCK_TILES", block)
        assert main(["map", "water", "--world", str(world_dir), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
    scores = load_density_grid(outs[0] / "density_water.grid").scores
    assert scores.shape == (18, 18)

    grounds_ts = int(np.mean(small_world.grounds.timestamp.tolist()))
    snap_ts = [s.timestamp for s in small_world.snapshots]
    ts = snap_ts[corpus.select_snapshot(snap_ts, grounds_ts)]
    query = embed_text(small_world.text_encoder, "water", PromptSet())
    want = density_scores_per_cell(small_world.field, params, query, RunConfig().tile_spec(),
                                   224, ts)
    # the grid holds float32 scores: each is the oracle's, rounded
    np.testing.assert_array_equal(scores, want.astype(np.float32))
    for name in ("density_water.grid", "density_water.pgm"):
        assert file_hash(outs[0] / name) == file_hash(outs[1] / name), name


@pytest.mark.parametrize("command", [["map", "water"], ["eval", "classify"],
                                     ["eval", "retrieve"], ["eval", "segment"]],
                         ids=["map", "classify", "retrieve", "segment"])
def test_collapsed_encoder_checkpoint_exits_6(pipeline, tmp_path, capsys, command):
    _, world_dir, dataset, _ = pipeline
    params = oracle_params(16, 196)
    params.w2[:] = 0.0  # every patch output is exactly zero
    params.b2[:] = 0.0
    ckpt = tmp_path / "collapsed.grcp"
    save_checkpoint(ckpt, params, {})
    inputs = [] if command[0] == "map" else ["--dataset", str(dataset)]
    capsys.readouterr()
    assert main([*command, "--world", str(world_dir), *inputs, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), *WORLD_ARGS]) == 6
    err = capsys.readouterr().err
    assert "Traceback" not in err and "collapsed to zero norm" in err


@pytest.mark.parametrize("command", [["map", "water"], ["eval", "classify"],
                                     ["eval", "retrieve"], ["eval", "segment"]],
                         ids=["map", "classify", "retrieve", "segment"])
def test_non_finite_checkpoint_exits_6(pipeline, tmp_path, capsys, command):
    _, world_dir, dataset, _ = pipeline
    params = oracle_params(16, 196)
    params.w1[0, 0] = math.nan
    ckpt = tmp_path / "nan.grcp"
    save_checkpoint(ckpt, params, {})
    at = ckpt.read_bytes().index(struct.pack("<d", math.nan))  # w1's first element
    inputs = [] if command[0] == "map" else ["--dataset", str(dataset)]
    capsys.readouterr()
    assert main([*command, "--world", str(world_dir), *inputs, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), *WORLD_ARGS]) == 6
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"tensor 'w1' holds a non-finite value at byte {at}" in err
    assert not [*(tmp_path / "o").glob("*_metrics.txt"), *(tmp_path / "o").glob("*.grid")]


def too_large(cell_px: int, resolution: float, grid: str) -> str:
    return (f"map.cell_px={cell_px} at tile.resolution_m={resolution!r} gives {grid} cells, "
            f"more than the 4194304 a map holds")


@pytest.mark.parametrize("override, message", [
    ("map.cell_px=0", "out of range"), ("map.cell_px=-1", "out of range"),
    ("map.cell_px=100000", "4000 x 4000 m extent"),
    ("tile.resolution_m=1e307", "4000 x 4000 m extent"),  # the cell size overflows to inf
    # grids too large to hold, counted before any per-cell array is made
    ("map.cell_px=1", too_large(1, 1.0, "4000 x 4000 = 1.6e+07")),
    ("tile.resolution_m=1e-3", too_large(224, 1e-3, "17857 x 17857 = 3.189e+08")),
    ("tile.resolution_m=1e-6", too_large(224, 1e-6, "17857143 x 17857143 = 3.189e+14")),
    ("tile.resolution_m=5e-324", too_large(224, 5e-324, "inf x inf = inf")),  # step 0
], ids=["zero", "negative", "wider_than_world", "wider_than_a_float", "cell_px_1",
        "resolution_1e-3", "resolution_1e-6", "resolution_subnormal"])
def test_map_cell_px_out_of_domain_exits_2(pipeline, tmp_path, capsys, override, message):
    root, world_dir, _, ckpt = pipeline
    capsys.readouterr()
    assert main(["map", "water", "--world", str(world_dir), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "m"), *WORLD_ARGS, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "m" / "density_water.grid").exists()


def run_on_edited_world(command, pipeline, tmp_path, capsys, name, edit):
    """Exit code and stderr of `build` or `map` on a fresh 60-ground world whose
    file `name` is replaced by `edit(old text)`."""
    world_dir = tmp_path / "world"
    sixty = ["--set", "world.n_ground=60"]
    assert main(["synth", "--out", str(world_dir), *sixty]) == 0
    (world_dir / name).write_text(edit((world_dir / name).read_text()))
    capsys.readouterr()
    inputs = ["water", "--checkpoint", str(pipeline[3])] if command == "map" else []
    code = main([command, *inputs, "--world", str(world_dir), "--out", str(tmp_path / "o"),
                 *sixty])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "map"])
def test_empty_snapshot_manifest_exits_4(pipeline, tmp_path, capsys, command):
    code, err = run_on_edited_world(command, pipeline, tmp_path, capsys,
                                    "snapshot_manifest.txt", lambda _: "")
    assert code == 4
    assert "Traceback" not in err and "snapshot manifest is empty" in err


@pytest.mark.parametrize("command", ["build", "map"])
def test_infinite_field_noise_exits_4(pipeline, tmp_path, capsys, command):
    def infinite_noise(text):
        field = json.loads(text)
        field["noise_sigma"] = math.inf
        return json.dumps(field)  # written as the JSON literal Infinity

    code, err = run_on_edited_world(command, pipeline, tmp_path, capsys, "field.json",
                                    infinite_noise)
    assert code == 4
    assert "Traceback" not in err and "field.json: noise_sigma inf" in err
    assert not list((tmp_path / "o").glob("density_*"))


@pytest.mark.parametrize("command", ["build", "map"])
def test_field_noise_over_its_bound_exits_4(pipeline, tmp_path, capsys, command):
    # a finite sigma this large overflows the float32 features
    def huge_noise(text):
        field = json.loads(text)
        field["noise_sigma"] = 1e200
        return json.dumps(field)

    code, err = run_on_edited_world(command, pipeline, tmp_path, capsys, "field.json",
                                    huge_noise)
    assert code == 4
    assert "Traceback" not in err and "field.json: noise_sigma 1e+200 exceeds 1e+30" in err
    assert not list((tmp_path / "o").glob("*.grft")) + list((tmp_path / "o").glob("density_*"))


def test_synth_noise_over_its_bound_exits_2(tmp_path, capsys):
    out = tmp_path / "world"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--set", "world.n_ground=50",
                 "--set", "world.extent_km=2", "--set", "world.noise_sigma=1e200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "noise_sigma 1e+200 exceeds 1e+30" in err
    assert not out.exists()


def test_ground_id_longer_than_a_container_string_exits_4(pipeline, tmp_path, capsys):
    def long_first_id(text):
        first, rest = text.split("\n", 1)
        return " ".join(["x" * 70_000, *first.split()[1:]]) + "\n" + rest

    code, err = run_on_edited_world("build", pipeline, tmp_path, capsys, "ground_manifest.txt",
                                    long_first_id)
    assert code == 4
    assert "Traceback" not in err
    assert "ground_manifest.txt:1: ground id of 70000 UTF-8 bytes" in err
    assert not list((tmp_path / "o").glob("*.grft"))


def test_prompt_longer_than_a_fixture_key_exits_2(tmp_path, capsys):
    out = tmp_path / "world"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--set", "world.n_ground=50",
                 "--set", "prompts=" + "x" * 70_000 + " {label}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "renders to 70010 UTF-8 bytes" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["map", "water"], ["eval", "classify"],
                                     ["eval", "retrieve"], ["eval", "segment"]],
                         ids=["map", "classify", "retrieve", "segment"])
def test_cancelling_prompt_embeddings_exit_6(pipeline, tmp_path, capsys, command):
    # every class's two prompts embed to opposite vectors, so no ensemble
    # mean can be normalized
    _, world_dir, dataset, ckpt = pipeline
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    names = corpus.load_feature_field(world / "field.json").class_names
    keys = [f"{side} {name}" for name in names for side in ("up", "down")]
    basis = np.eye(16)[: len(names)]
    save_embeddings(world / "text_embeddings.bin", keys,
                    np.stack([basis, -basis], axis=1).reshape(len(keys), 16))
    inputs = [] if command[0] == "map" else ["--dataset", str(dataset)]
    capsys.readouterr()
    assert main([*command, "--world", str(world), *inputs, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), *WORLD_ARGS,
                 "--set", "prompts=up {label}|down {label}"]) == 6
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "mismatch: cannot normalize vector with norm 0.000e+00\n"


def test_cancelling_ground_group_under_avg_rep_exits_5(pipeline, tmp_path, capsys):
    # a tile's two grounds embed to opposite vectors: their mean has no direction
    _, world_dir, dataset, _ = pipeline
    ds = corpus.load_dataset(dataset)
    tile = int(np.flatnonzero(np.diff(ds.offsets) == 2)[0])
    a, b = (ds.grounds.refs[g] for g in ds.ground[ds.offsets[tile] : ds.offsets[tile] + 2])
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    fixture = load_embeddings(world / "ground_embeddings.bin")
    vectors = fixture.vectors.copy()
    vectors[fixture.index[b]] = -vectors[fixture.index[a]]
    save_embeddings(world / "ground_embeddings.bin", fixture.keys, vectors)
    capsys.readouterr()
    assert main(["train", "--world", str(world), "--dataset", str(dataset),
                 "--out", str(tmp_path / "run"), "--epochs", "1", "--loss", "avg_rep"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("training diverged: step ") and "has degenerate mean" in err
    assert not (tmp_path / "run" / "checkpoint.grcp").exists()


# field.json values of the wrong JSON type or out of their domain: each names its key
FIELD_SCHEMA_BREAKS = {
    "negative_noise_key": ("noise_key", lambda old: -5),
    "float_noise_key": ("noise_key", lambda old: 2.7),
    "bool_noise_key": ("noise_key", lambda old: True),
    "float_feature_dim": ("feature_dim", lambda old: 16.5),
    "three_bounds": ("bounds", lambda old: [1, 2, 3]),
    "string_bounds": ("bounds", lambda old: "abcd"),
    "infinite_bound": ("bounds", lambda old: old[:3] + [math.inf]),
    "string_class_names": ("class_names", lambda old: "abcdefgh"),
    "2d_seeds_lat": ("seeds_lat", lambda old: [[v] for v in old]),
}


@pytest.mark.parametrize("command", ["build", "map"])
@pytest.mark.parametrize("case", FIELD_SCHEMA_BREAKS)
def test_field_json_schema_exits_4(pipeline, tmp_path, capsys, command, case):
    key, value = FIELD_SCHEMA_BREAKS[case]

    def edit(text):
        field = json.loads(text)
        field[key] = value(field[key])
        return json.dumps(field)

    code, err = run_on_edited_world(command, pipeline, tmp_path, capsys, "field.json", edit)
    assert code == 4, err
    assert "Traceback" not in err and "field.json" in err and key in err


@pytest.mark.parametrize("command", ["build", "map"])
def test_negative_snapshot_timestamp_exits_4(pipeline, tmp_path, capsys, command):
    code, err = run_on_edited_world(command, pipeline, tmp_path, capsys, "snapshot_manifest.txt",
                                    lambda text: text.replace(" 1700000000 ", " -5 ", 1))
    assert code == 4
    assert "Traceback" not in err and "snapshot_manifest.txt:1: timestamp -5 outside" in err


@pytest.mark.parametrize("command", ["build", "map"])
def test_snapshot_blob_that_is_not_a_field_exits_4(pipeline, tmp_path, capsys, command):
    # map scores the field of the snapshot it picks, as build pairs with it
    code, err = run_on_edited_world(command, pipeline, tmp_path, capsys, "snapshot_manifest.txt",
                                    lambda text: text.replace("field.json", "world.json"))
    assert code == 4
    assert "Traceback" not in err and "world.json has unknown format" in err


def test_map_unknown_label_exits_6(pipeline, tmp_path):
    root, world_dir, _, ckpt = pipeline
    assert main(["map", "volcano", "--world", str(world_dir), "--checkpoint",
                 str(ckpt), "--out", str(tmp_path / "m"), *WORLD_ARGS]) == 6


def test_resolved_config_snapshot_roundtrips(pipeline):
    from graft.config import RunConfig

    _, world_dir, _, _ = pipeline
    snap = world_dir / "run_config.txt"
    cfg = RunConfig.from_file(snap)
    assert cfg["world.noise_sigma"] == 0.0
    assert cfg["world.n_ground"] == 150


@pytest.mark.parametrize("command, loader", [("train", "load_dataset"),
                                             ("classify", "load_tiles")])
def test_container_truncated_after_loading_exits_4(pipeline, tmp_path, capsys, monkeypatch,
                                                    command, loader):
    # the features stay in the file, and each read checks its byte count
    _, world_dir, dataset, ckpt = pipeline
    copy = tmp_path / "dataset.grft"
    shutil.copyfile(dataset, copy)
    load = getattr(corpus, loader)

    def load_then_truncate(path):
        loaded = load(path)
        os.truncate(path, copy.stat().st_size // 2)
        return loaded

    monkeypatch.setattr(corpus, loader, load_then_truncate)
    inputs = ["--world", str(world_dir), "--dataset", str(copy), "--out", str(tmp_path / "o")]
    argv = (["train", *inputs, "--epochs", "1"] if command == "train"
            else ["eval", "classify", *inputs, "--checkpoint", str(ckpt)])
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    match = re.fullmatch(rf"data error: container {re.escape(str(copy))} truncated at byte "
                         rf"(\d+): wanted (\d+) bytes, (\d+) left\n", err)
    start, wanted, left = map(int, match.groups())
    assert wanted > left and start + left == max(start, copy.stat().st_size)  # past the cut
    assert not list((tmp_path / "o").glob("*.grcp")) + list((tmp_path / "o").glob("classify_*"))


def test_build_failing_mid_write_leaves_no_container(pipeline, tmp_path, capsys, monkeypatch):
    # the container is written to a temporary file and renamed only once whole
    _, world_dir, _, _ = pipeline
    blocks = []
    materialize = corpus.materialize_many

    def full_disk_in_the_second_block(fld, spec, lat, lon, timestamps):
        blocks.append(len(lat))
        if len(blocks) == 2:
            raise OSError(28, "No space left on device")
        return materialize(fld, spec, lat, lon, timestamps)

    monkeypatch.setattr(corpus, "materialize_many", full_disk_in_the_second_block)
    out = tmp_path / "data"
    capsys.readouterr()
    assert main(["build", "--world", str(world_dir), "--out", str(out), *WORLD_ARGS]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert blocks == [corpus.FIELD_BLOCK_TILES] * 2
    assert list(out.iterdir()) == []  # no dataset.grft, no temporary file, no run_config.txt
