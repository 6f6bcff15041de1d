from __future__ import annotations

import numpy as np
import pytest

from _oracles import fd_gradient_inplace, image_level_per_tile, relative_error
from graft import corpus, losses
from graft.encoder import encoder_backward, forward_patch_rows, init_params
from graft.geo import geotag_to_pixel, pixel_to_patch
from graft.losses import LossConfig, pixel_loss_anchors
from graft.train import (
    AdamWState,
    DivergenceError,
    TrainSchedule,
    adamw_update,
    batch_ground_groups,
    load_checkpoint,
    loss_and_param_grads,
    lr_at,
    resolve_ground_embeddings,
    save_checkpoint,
    train,
    train_step,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def resolved_schedule(**kw):
    return TrainSchedule(**kw).resolve(batches_per_epoch=10)


def test_lr_schedule_endpoints():
    sched = TrainSchedule(peak_lr=1e-3, warmup_steps=10, total_steps=100)
    assert lr_at(0, sched) == 0.0
    assert lr_at(10, sched) == pytest.approx(1e-3)
    assert lr_at(100, sched) == pytest.approx(0.0, abs=1e-18)


def test_lr_schedule_shape():
    sched = TrainSchedule(peak_lr=1.0, warmup_steps=5, total_steps=50)
    ramp = [lr_at(s, sched) for s in range(6)]
    assert ramp == sorted(ramp)
    decay = [lr_at(s, sched) for s in range(5, 51)]
    assert decay == sorted(decay, reverse=True)
    with pytest.raises(ValueError):
        lr_at(51, sched)


def test_schedule_validation_and_resolve():
    with pytest.raises(ValueError):
        TrainSchedule(warmup_steps=20, total_steps=10)
    sched = TrainSchedule(epochs=3).resolve(batches_per_epoch=7)
    assert sched.total_steps == 21
    assert sched.warmup_steps == 2  # 10% of total, floored, at least 1
    assert TrainSchedule(epochs=1).resolve(batches_per_epoch=1).warmup_steps == 1


def test_adamw_matches_hand_computed_step():
    params = init_params(2, 2, 2, 1, seed=0)
    w0 = params.w1.copy()
    grads = {k: np.ones_like(v) for k, v in params.arrays().items()}
    state = AdamWState.zeros_like(params)
    lr, wd = 0.1, 0.01
    adamw_update(params, grads, state, lr, wd)
    # first step: m_hat = g, v_hat = g^2; update = lr*(1/(1+eps)) + lr*wd*w
    expected = w0 - lr * (1.0 / (1.0 + 1e-8)) - lr * wd * w0
    np.testing.assert_allclose(params.w1, expected, atol=1e-12)
    assert state.t == 1


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = corpus.SynthWorldConfig(
        n_classes=4, embed_dim=8, feature_dim=8, extent_km=2.0, n_ground=40,
        noise_sigma=0.1, center_lat=41.0, center_lon=8.0,
    )
    world = corpus.synth_world(cfg, seed=3)
    from graft.geo import GeoPoint, TileSpec

    spec = TileSpec(GeoPoint(41.0, 8.0), size_px=64, patch_px=16)
    ds = corpus.build_pairs(
        world.grounds, world.snapshots, spec, cap=25, min_sep_px=16, seed=3,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    return world, ds


def test_zero_lr_keeps_params_bit_identical(tiny_setup):
    world, ds = tiny_setup
    batch = corpus.make_batches(ds, 4, seed=0)[0]
    params = init_params(8, 6, 8, 16, seed=1)
    sched = TrainSchedule(peak_lr=0.0, warmup_steps=1, total_steps=10)
    new_params, value = train_step(params, batch,
                                   resolve_ground_embeddings(ds, world.ground_encoder),
                                   LossConfig(), sched, step=5)
    assert np.isfinite(value)
    for name, arr in params.arrays().items():
        assert arr.tobytes() == new_params.arrays()[name].tobytes()


@pytest.mark.parametrize("variant", ["image_default", "pixel_default", "sum_prob",
                                     "avg_rep", "l2"])
def test_repeated_batch_reduces_loss(tiny_setup, variant):
    world, ds = tiny_setup
    batch = corpus.make_batches(ds, 6, seed=1)[0]
    params = init_params(8, 6, 8, 16, seed=2)
    sched = TrainSchedule(peak_lr=1e-2, warmup_steps=5, total_steps=50)
    state = AdamWState.zeros_like(params)
    ground_embs = resolve_ground_embeddings(ds, world.ground_encoder)
    first = None
    value = None
    for step in range(1, 51):
        params, value = train_step(params, batch, ground_embs,
                                   LossConfig(variant=variant), sched, step, state)
        if first is None:
            first = value
    assert value < first


@pytest.mark.parametrize("variant", ["image_default", "pixel_default", "sum_prob",
                                     "avg_rep", "l2"])
def test_full_parameter_gradient_matches_fd(tiny_setup, variant, rng):
    # the train_step gradient (loss wrt encoder weights) on a tiny instance:
    # F=4, H=4, D=4, 2x2 patches
    cfg = corpus.SynthWorldConfig(
        n_classes=3, embed_dim=4, feature_dim=4, extent_km=1.0, n_ground=12,
        noise_sigma=0.05, center_lat=40.0, center_lon=7.0,
    )
    world = corpus.synth_world(cfg, seed=5)
    from graft.geo import GeoPoint, TileSpec

    spec = TileSpec(GeoPoint(40.0, 7.0), size_px=32, patch_px=16)
    ds = corpus.build_pairs(
        world.grounds, world.snapshots, spec, cap=25, min_sep_px=4, seed=5,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    batch = corpus.make_batches(ds, 3, seed=0)[0]
    params = init_params(4, 4, 4, 4, seed=6)
    loss_cfg = LossConfig(variant=variant)
    ground_embs = resolve_ground_embeddings(ds, world.ground_encoder)

    _, grads = loss_and_param_grads(params, batch, ground_embs, loss_cfg)

    def objective():
        value, _ = loss_and_param_grads(params, batch, ground_embs, loss_cfg)
        return value

    for name, grad in grads.items():
        numeric = fd_gradient_inplace(objective, getattr(params, name), h=1e-5)
        if np.linalg.norm(numeric) < 1e-9 and np.linalg.norm(grad) < 1e-9:
            continue  # pooling weights see no gradient under the pixel loss
        assert relative_error(grad, numeric) <= 1e-3, (variant, name)


def test_divergence_raises_with_step(tiny_setup):
    world, ds = tiny_setup
    batch = corpus.make_batches(ds, 4, seed=2)[0]
    batch.tiles[0].patch_features[0, 0, 0] = np.nan
    params = init_params(8, 6, 8, 16, seed=3)
    sched = TrainSchedule(peak_lr=1e-3, warmup_steps=1, total_steps=10)
    ground_embs = resolve_ground_embeddings(ds, world.ground_encoder)
    with pytest.raises(DivergenceError, match="step 7"):
        train_step(params, batch, ground_embs, LossConfig(), sched, step=7)
    batch.tiles[0].patch_features[0, 0, 0] = 0.0  # un-poison the shared fixture


def test_train_zero_epochs_returns_init(tiny_setup):
    world, ds = tiny_setup
    sched = TrainSchedule(epochs=0, seed=4)
    result = train(ds, world.ground_encoder, LossConfig(), sched, batch_size=4,
                   hidden_dim=6)
    init = init_params(8, 6, 8, ds.tiles[0].spec.grid_px ** 2, seed=4)
    for name, arr in init.arrays().items():
        assert arr.tobytes() == result.params.arrays()[name].tobytes()
    assert result.epoch_mean_loss == []


def test_train_rejects_batches_without_negatives(tiny_setup):
    world, ds = tiny_setup
    with pytest.raises(ValueError, match="batch_size 1"):
        train(ds, world.ground_encoder, LossConfig(), TrainSchedule(epochs=1), batch_size=1)


def test_train_loss_decreases_and_is_deterministic(tiny_setup):
    world, ds = tiny_setup
    sched = TrainSchedule(peak_lr=1e-3, epochs=4, seed=5)
    r1 = train(ds, world.ground_encoder, LossConfig(), sched, batch_size=4, hidden_dim=6)
    r2 = train(ds, world.ground_encoder, LossConfig(), sched, batch_size=4, hidden_dim=6)
    assert r1.epoch_mean_loss == r2.epoch_mean_loss
    assert len(r1.epoch_mean_loss) == 4
    assert r1.epoch_mean_loss[-1] < r1.epoch_mean_loss[0]
    for name in r1.params.arrays():
        assert r1.params.arrays()[name].tobytes() == r2.params.arrays()[name].tobytes()
    assert r1.provenance["config_digest"] == r2.provenance["config_digest"]


def test_frozen_encoder_untouched_by_training(tiny_setup):
    world, ds = tiny_setup
    before = world.ground_encoder.content_hash()
    train(ds, world.ground_encoder, LossConfig(), TrainSchedule(epochs=2, seed=6),
          batch_size=4, hidden_dim=6)
    assert world.ground_encoder.content_hash() == before


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(5, 7, 6, 9, seed=11)
    provenance = {"seed": 11, "loss_variant": "image_default"}
    path = tmp_path / "ckpt.grcp"
    save_checkpoint(path, params, provenance)
    loaded, prov = load_checkpoint(path)
    assert prov == provenance
    for name, arr in params.arrays().items():
        assert arr.tobytes() == loaded.arrays()[name].tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ckpt.grcp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_batch_ground_groups_shapes(tiny_setup):
    world, ds = tiny_setup
    batch = corpus.make_batches(ds, 4, seed=3)[0]
    groups = batch_ground_groups(batch, resolve_ground_embeddings(ds, world.ground_encoder))
    assert len(groups) == batch.n_tiles
    for n_grounds, group in zip(batch.sizes, groups):
        assert group.size == n_grounds


def per_tile_pixel_grads(params, batch, ds, ground_embs, tau):
    """Pixel-level loss and parameter gradients with one encoder pass per tile.

    Patch rows come from the scalar geotag mapping, not from the dataset pack.
    """
    groups = batch_ground_groups(batch, ground_embs)
    anchors, passes = [], []
    start = 0
    for tile, n in zip(batch.tiles, batch.sizes):
        grid, patch_px = tile.spec.grid_px, tile.spec.patch_px
        rows = []
        for g in batch.ground[start : start + n]:
            patch = pixel_to_patch(geotag_to_pixel(tile.spec, ds.grounds[g].geo), patch_px)
            rows.append(patch.prow * grid + patch.pcol)
        start += n
        uniq, inverse = np.unique(rows, return_inverse=True)
        embs, cache = forward_patch_rows(params, tile.patch_features.reshape(grid * grid, -1)[uniq])
        anchors.append(embs[inverse])
        passes.append((cache, inverse, len(uniq)))
    value, d_anchors = pixel_loss_anchors(np.concatenate(anchors), groups, tau)

    grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    offset = 0
    for cache, inverse, n_uniq in passes:
        d_rows = np.zeros((n_uniq, params.embed_dim))
        np.add.at(d_rows, inverse, d_anchors[offset : offset + len(inverse)])
        offset += len(inverse)
        for k, g in encoder_backward(params, cache, d_patch_embs=d_rows).items():
            grads[k] += g
    return value, grads


def test_batched_pixel_backward_matches_per_tile_passes():
    # a dense world, so tiles hold many grounds and some share a patch
    cfg = corpus.SynthWorldConfig(extent_km=1.0, n_ground=300, center_lat=41.0, center_lon=8.0)
    world = corpus.synth_world(cfg, seed=8)
    from graft.geo import GeoPoint, TileSpec

    ds = corpus.build_pairs(
        world.grounds, world.snapshots, TileSpec(GeoPoint(41.0, 8.0)), seed=8,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    batch = corpus.make_batches(ds, 6, seed=4)[0]
    assert batch.sizes.min() > 1
    tile_of_pair = np.repeat(np.arange(batch.n_tiles), batch.sizes)
    assert len(np.unique(tile_of_pair * 196 + batch.patch)) < len(batch.patch)
    params = init_params(16, 6, 16, 196, seed=7)
    ground_embs = resolve_ground_embeddings(ds, world.ground_encoder)
    value, grads = loss_and_param_grads(params, batch, ground_embs,
                                        LossConfig(variant="pixel_default"))
    want_value, want_grads = per_tile_pixel_grads(params, batch, ds, ground_embs, 0.07)
    assert abs(value - want_value) <= 1e-12
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, want_grads[name], rtol=0, atol=1e-12, err_msg=name)


IMAGE_LOSSES = {
    "image_default": lambda sat, groups: losses.image_loss(sat, groups, 0.07),
    "sum_prob": lambda sat, groups: losses.loss_sum_prob(sat, groups, 0.07),
    "avg_rep": lambda sat, groups: losses.loss_avg_rep(sat, groups, 0.07),
    "l2": losses.loss_l2,
}


@pytest.mark.parametrize("variant", sorted(IMAGE_LOSSES))
def test_blocked_image_pass_matches_per_tile_loop(variant, rng):
    # 11 tiles of 196 patches: blocks of 7 tiles, so the second block is partial
    cfg = corpus.SynthWorldConfig(extent_km=2.0, n_ground=200, center_lat=41.0, center_lon=8.0)
    world = corpus.synth_world(cfg, seed=8)
    from graft.geo import GeoPoint, TileSpec

    ds = corpus.build_pairs(
        world.grounds, world.snapshots, TileSpec(GeoPoint(41.0, 8.0)), seed=8,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    batch = corpus.make_batches(ds, 11, seed=4)[0]
    assert batch.n_tiles == 11
    params = init_params(16, 6, 16, 196, seed=7)
    params.pool_logits[:] = rng.standard_normal(196)
    params.b2[:] = 0.3 * rng.standard_normal(16)
    ground_embs = resolve_ground_embeddings(ds, world.ground_encoder)
    value, grads = loss_and_param_grads(params, batch, ground_embs, LossConfig(variant=variant))
    groups = batch_ground_groups(batch, ground_embs)
    want_value, want_grads = image_level_per_tile(
        params, [t.patch_features for t in batch.tiles],
        lambda sat: IMAGE_LOSSES[variant](sat, groups),
    )
    assert abs(value - want_value) <= 1e-12
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, want_grads[name], rtol=0, atol=1e-12, err_msg=name)


def test_collapsed_patch_output_is_divergence(tiny_setup):
    world, ds = tiny_setup
    batch = corpus.make_batches(ds, 4, seed=2)[0]
    params = init_params(8, 6, 8, 16, seed=3)
    params.w2[:] = 0.0
    params.b2[:] = 0.0
    sched = TrainSchedule(peak_lr=1e-3, warmup_steps=1, total_steps=10)
    ground_embs = resolve_ground_embeddings(ds, world.ground_encoder)
    with pytest.raises(ValueError, match="patch output collapsed"):
        loss_and_param_grads(params, batch, ground_embs, LossConfig())
    with pytest.raises(DivergenceError, match="step 3: patch output collapsed"):
        train_step(params, batch, ground_embs, LossConfig(), sched, step=3)
