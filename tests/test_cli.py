from __future__ import annotations

import hashlib
import json
import math
import shutil
import struct

import numpy as np
import pytest

from graft import corpus, evaluation
from graft.cli import main
from graft.encoder import SatEncoderParams, encoder_forward, init_params
from graft.frozen import PromptSet, embed_text
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


def test_synth_unwritable_dir():
    assert main(["synth", "--out", "/proc/definitely/forbidden"]) == 3


def test_unknown_config_key_exits_2():
    assert main(["synth", "--out", "ignored", "--set", "world.bogus=1"]) == 2


@pytest.mark.parametrize(
    "command, override",
    [
        ("train", "loss.tau=0"),  # LossConfig
        ("train", "train.peak_lr=-1"),  # TrainSchedule
        ("train", "train.batch_size=1"),  # a one-tile batch has no negatives
        ("synth", "world.classes=1"),  # SynthWorldConfig
        ("build", "tile.patch_px=15"),  # TileSpec: 224 px is not a multiple
    ],
)
def test_rejected_config_value_exits_2(pipeline, tmp_path, capsys, command, override):
    _, world_dir, dataset, _ = pipeline
    inputs = {
        "synth": [],
        "build": ["--world", str(world_dir)],
        "train": ["--world", str(world_dir), "--dataset", str(dataset)],
    }[command]
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(tmp_path / "o"), "--set", override]) == 2
    assert capsys.readouterr().err.startswith("config error:")


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
    ds.assignments[1].append(10**6)
    bad = tmp_path / "bad.grft"
    corpus.save_dataset(ds, bad)
    capsys.readouterr()
    assert main(["train", "--world", str(world_dir), "--dataset", str(bad),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 4
    err = capsys.readouterr().err
    assert f"tile {ds.tiles[1].id}" in err and "1000000 out of range" in err


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


def test_eval_random_encoder_near_chance(pipeline):
    # a random untrained encoder classifies a balanced 8-class world at chance;
    # averaged over many seeds the accuracy settles near 1/8
    root, world_dir, dataset, _ = pipeline
    world = corpus.load_world_dir(world_dir)
    ds = corpus.load_dataset(dataset)
    prompts = PromptSet()
    class_embs = np.stack(
        [embed_text(world.text_encoder, n, prompts) for n in world.class_names]
    )
    gts = np.array(
        [np.bincount(world.field.class_grid(t.spec).ravel()).argmax() for t in ds.tiles]
    )
    accs = []
    for seed in range(24):
        params = init_params(16, 32, 16, 196, seed=1000 + seed)
        preds = np.array(
            [
                evaluation.zero_shot_classify(
                    encoder_forward(params, t.patch_features)[1], class_embs
                )
                for t in ds.tiles
            ]
        )
        accs.append(float(np.mean(preds == gts)))
    assert abs(np.mean(accs) - 0.125) <= 0.05


def test_eval_missing_checkpoint_exits_6(pipeline, tmp_path):
    root, world_dir, dataset, _ = pipeline
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(tmp_path / "nope.grcp"),
                 "--out", str(tmp_path / "e")]) == 6


def test_eval_dimension_mismatch_exits_6(pipeline, tmp_path):
    root, world_dir, dataset, _ = pipeline
    bad = tmp_path / "bad.grcp"
    save_checkpoint(bad, init_params(8, 4, 8, 196, seed=0), {})
    assert main(["eval", "classify", "--world", str(world_dir), "--dataset",
                 str(dataset), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "e")]) == 6


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


@pytest.mark.parametrize("corrupt", [lambda raw: raw[:-3], _flip_key_length, _nan_entry,
                                     _zero_entry], ids=["cut", "key_length", "nan", "zero"])
def test_train_corrupt_fixture_exits_4(pipeline, tmp_path, capsys, corrupt):
    _, world_dir, dataset, _ = pipeline
    broken = corrupt_copy(world_dir, tmp_path, "text_embeddings.bin", corrupt)
    capsys.readouterr()
    assert train_on(broken, dataset, tmp_path / "run") == 4
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
def test_train_malformed_field_json_exits_4(pipeline, tmp_path, capsys, text, named):
    _, world_dir, dataset, _ = pipeline
    broken = corrupt_copy(world_dir, tmp_path, "field.json", lambda _: text.encode())
    capsys.readouterr()
    assert train_on(broken, dataset, tmp_path / "run") == 4
    err = capsys.readouterr().err
    assert "field.json" in err and named in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("loss", ["image", "pixel"])
def test_train_divergence_exits_5(pipeline, tmp_path, capsys, loss):
    _, world_dir, dataset, _ = pipeline
    capsys.readouterr()
    assert main(["train", "--world", str(world_dir), "--dataset", str(dataset),
                 "--out", str(tmp_path / "run"), "--loss", loss,
                 "--set", "train.peak_lr=1e9"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("training diverged: step ") and "not unit-norm" in err


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
        grids[name] = evaluation.load_density_grid(
            out / f"density_{name}.grid"
        )

    first = next(iter(grids.values()))
    stack = np.stack([grids[n].scores for n in world.class_names])
    # per cell, the best-scoring query is the cell's majority ground-truth class
    from graft.geo import GeoPoint, TileSpec

    rows, cols = first.scores.shape
    for r in range(rows):
        for c in range(cols):
            lat = first.origin.lat - r * first.cell_m / 111320.0
            lon = first.origin.lon + c * first.cell_m / (
                111320.0 * np.cos(np.radians(world.field.origin.lat))
            )
            cell = TileSpec(GeoPoint(lat, lon))
            gt = np.bincount(world.field.class_grid(cell).ravel()).argmax()
            assert int(np.argmax(stack[:, r, c])) == int(gt)


def test_map_deterministic_and_shapes(pipeline, tmp_path):
    root, world_dir, _, ckpt = pipeline
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    for out in (out1, out2):
        assert main(["map", "water", "--world", str(world_dir), "--checkpoint",
                     str(ckpt), "--out", str(out), *WORLD_ARGS]) == 0
    assert file_hash(out1 / "density_water.grid") == file_hash(out2 / "density_water.grid")
    assert file_hash(out1 / "density_water.pgm") == file_hash(out2 / "density_water.pgm")
    dmap = evaluation.load_density_grid(out1 / "density_water.grid")
    # 4 km extent, 224 m cells, first center half a cell inside the bounds
    per_axis = int((4000.0 - 112.0) // 224.0) + 1
    assert dmap.scores.shape == (per_axis, per_axis)


def test_map_unknown_label_exits_6(pipeline, tmp_path):
    root, world_dir, _, ckpt = pipeline
    assert main(["map", "volcano", "--world", str(world_dir), "--checkpoint",
                 str(ckpt), "--out", str(tmp_path / "m"), *WORLD_ARGS]) == 6


def test_resolved_config_snapshot_roundtrips(pipeline):
    from graft.config import RunConfig

    _, world_dir, _, _ = pipeline
    snap = world_dir / "run_config.txt"
    cfg = RunConfig.from_file(snap)
    assert cfg.world_noise_sigma == 0.0
    assert cfg.world_n_ground == 150
