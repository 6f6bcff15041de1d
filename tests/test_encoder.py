from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (encoder_forward, fd_gradient_inplace, forward_tile, patch_collapse_full,
                      rand_unit, relative_error)
from graft import encoder, evaluation
from graft.encoder import (
    DegenerateOutputError,
    embed_images,
    encoder_backward,
    forward_patch_rows,
    image_backward,
    image_forward,
    init_params,
)


def test_zero_hidden_weights_constant_patches(rng):
    params = init_params(5, 3, 4, 4, seed=1)
    params.w1[:] = 0.0
    params.b1[:] = rng.standard_normal(3)
    params.b2[:] = 0.0
    features = rng.standard_normal((4, 5))
    patch_embs, _ = forward_patch_rows(params, features)
    expected = params.w2 @ np.tanh(params.b1)
    expected /= np.linalg.norm(expected)
    for row in patch_embs:
        np.testing.assert_allclose(row, expected, atol=1e-12)


def test_outputs_unit_norm(rng):
    params = init_params(6, 8, 5, 9, seed=2)
    features = rng.standard_normal((3, 3, 6))
    patch_embs, _ = forward_patch_rows(params, features.reshape(9, 6))
    image_embs = embed_images(params, [features])
    np.testing.assert_allclose(np.linalg.norm(patch_embs, axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(image_embs, axis=-1), 1.0, atol=1e-9)


def test_patch_permutation_symmetry(rng):
    params = init_params(6, 8, 5, 9, seed=3)  # pool_logits start uniform
    features = rng.standard_normal((9, 6))
    perm = rng.permutation(9)
    patch_embs, _ = forward_patch_rows(params, features)
    patch_embs_p, _ = forward_patch_rows(params, features[perm])
    np.testing.assert_allclose(patch_embs_p, patch_embs[perm], atol=1e-12)
    image_embs = embed_images(params, [features.reshape(3, 3, 6),
                                       features[perm].reshape(3, 3, 6)])
    np.testing.assert_allclose(image_embs[1], image_embs[0], atol=1e-12)


def test_dimension_mismatch_errors(rng):
    params = init_params(6, 8, 5, 9, seed=4)
    with pytest.raises(ValueError, match="feature_dim"):
        forward_patch_rows(params, rng.standard_normal((9, 7)))
    with pytest.raises(ValueError, match="feature_dim"):
        embed_images(params, [rng.standard_normal((3, 3, 7))])
    with pytest.raises(ValueError, match="patches"):
        embed_images(params, [rng.standard_normal((2, 2, 6))])


def test_forward_rows_match_full_forward(rng):
    params = init_params(5, 6, 4, 4, seed=5)
    features = rng.standard_normal((2, 2, 5))
    patch_embs, _, _ = forward_tile(params, features)
    rows, _ = forward_patch_rows(params, features.reshape(4, 5)[[2, 0]])
    np.testing.assert_allclose(rows[0], patch_embs.reshape(4, -1)[2], atol=1e-15)
    np.testing.assert_allclose(rows[1], patch_embs.reshape(4, -1)[0], atol=1e-15)


def test_full_parameter_gradients_match_fd(rng):
    # tiny instance: F=4, H=4, D=4, 2x2 patches; patch and image gradients come
    # from their own backward passes and add up
    params = init_params(4, 4, 4, 4, seed=6)
    params.pool_logits[:] = rng.standard_normal(4)
    params.b2[:] = rng.standard_normal(4)
    features = rng.standard_normal((2, 2, 4))
    d_patch = rand_unit(rng, (4, 4))
    d_image = rand_unit(rng, 4)

    def objective():
        p, img, _ = forward_tile(params, features)
        return float(np.sum(p.reshape(4, 4) * d_patch) + img @ d_image)

    _, _, cache = forward_tile(params, features)
    _, image_cache = image_forward(params, [features])
    patch_grads = encoder_backward(params, cache, d_patch)
    image_grads = image_backward(params, image_cache, d_image[None])
    for name in patch_grads:
        grad = patch_grads[name] + image_grads[name]
        numeric = fd_gradient_inplace(objective, getattr(params, name), h=1e-6)
        assert relative_error(grad, numeric) <= 1e-3, name


def test_image_forward_matches_tile_forward(rng):
    # 5 tiles of 3x3 patches in blocks of 2 tiles: the last block is partial
    params = init_params(6, 8, 5, 9, seed=10)
    params.pool_logits[:] = rng.standard_normal(9)
    grids = rng.standard_normal((5, 3, 3, 6)).astype(np.float32)
    want = np.array([encoder_forward(params, g)[1] for g in grids])
    class_embs = rand_unit(rng, (4, 5))
    want_labels = [evaluation.segment_patches(encoder_forward(params, g)[0], class_embs)[0]
                   for g in grids]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "IMAGE_BLOCK_ROWS", 18)
        embs, cache = image_forward(params, grids)
        assert [start for start, _, _ in cache.blocks] == [0, 2, 4]
        np.testing.assert_allclose(embs, want, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(embed_images(params, grids), embs)
        np.testing.assert_array_equal(evaluation.segment_tiles(params, grids, class_embs),
                                      np.reshape(want_labels, (5, 9)))
    # one block of all 5 tiles gives the same bits
    np.testing.assert_array_equal(embed_images(params, grids), embs)


def test_collapsed_patch_output_raises_in_image_path(rng):
    # one patch's output is exactly zero while the pooled output is not
    params = init_params(3, 3, 3, 4, seed=11)
    params.w1[:] = np.eye(3)
    params.w2[:] = np.eye(3)
    params.b1[:] = 0.0
    params.b2[:] = 0.0
    grid = np.ones((2, 2, 3))
    grid[0, 0] = 0.0
    with pytest.raises(ValueError, match="patch output collapsed"):
        image_forward(params, [np.ones((2, 2, 3)), grid])
    with pytest.raises(ValueError, match="patch output collapsed"):
        embed_images(params, [grid])
    with pytest.raises(ValueError, match="pooled image output collapsed"):
        image_forward(params, [np.zeros((2, 2, 3)) + [[[1.0, 0, 0]], [[-1.0, 0, 0]]]])


def raises_like_full_check(params, grids) -> bool:
    """Whether image_forward and embed_images raise a patch collapse, required
    to be exactly when the check on every patch output raises."""
    with np.errstate(all="ignore"):
        want = patch_collapse_full(params, grids)
        for fn in (image_forward, embed_images):
            try:
                fn(params, grids)
                raised = False
            except DegenerateOutputError as exc:
                raised = "patch output collapsed" in str(exc)
            assert raised == want, fn.__name__
    return want


def identity_encoder(dim: int, n_patches: int):
    params = init_params(dim, dim, dim, n_patches)
    params.w1[:] = np.eye(dim)
    params.w2[:] = np.eye(dim)
    return params


@settings(max_examples=80, deadline=None)
@given(
    scale=st.one_of(st.floats(0.5, 2.0), st.sampled_from([1.0 - 2**-52, 1.0, 1.0 + 2**-52])),
    seed=st.integers(0, 2**32 - 1),
)
def test_patch_collapse_check_at_the_floor(scale, seed):
    # one patch output of norm scale * 1e-12 in a random direction, through a
    # random rotation; its projection onto the screen's direction is no larger
    rng = np.random.default_rng(seed)
    params = identity_encoder(3, 4)
    params.w2[:] = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    grids = rng.uniform(0.5, 1.0, (2, 2, 2, 3))
    grids[1, 0, 1] = scale * 1e-12 * rand_unit(rng, 3)
    collapsed = raises_like_full_check(params, grids)
    if abs(scale - 1) > 1e-3:
        assert collapsed == (scale < 1)


@pytest.mark.parametrize("name", ["w1", "w2", "x"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_patch_collapse_check_with_non_finite_values(rng, name, value):
    # alone, and next to a patch whose output is exactly zero
    for zero_patch in (False, True):
        params = identity_encoder(3, 4) if zero_patch else init_params(3, 5, 4, 4, seed=12)
        grids = rng.uniform(-1.0, 1.0, (3, 2, 2, 3))
        if zero_patch:
            grids[2, 1, 1] = 0.0
        target = grids if name == "x" else getattr(params, name)
        target.reshape(-1)[rng.integers(target.size)] = value
        raises_like_full_check(params, grids)


def test_patch_collapse_check_of_a_zero_output_layer(rng):
    params = init_params(3, 5, 4, 4, seed=13)
    params.w2[:] = 0.0
    params.b2[:] = 0.0
    assert raises_like_full_check(params, rng.standard_normal((2, 2, 2, 3)))


def test_patch_collapse_check_of_the_identity_encoder():
    params = identity_encoder(3, 4)
    grid = np.ones((2, 2, 3))
    grid[0, 0] = 0.0
    assert raises_like_full_check(params, np.stack([np.ones((2, 2, 3)), grid]))
    assert not raises_like_full_check(params, np.ones((2, 2, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(
    scale=st.sampled_from([1.0, 1e3, 1e6]),
    target=st.sampled_from([0.0, 3e-13, 1e-12, 3e-12, 1e-10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_patch_collapse_check_under_cancellation(scale, target, seed):
    # large output weights and a bias that cancels them to `target` on one
    # patch: the rounding error of layer 2 is far above the floor there
    rng = np.random.default_rng(seed)
    params = init_params(4, 6, 3, 4, seed=seed % 1000)
    params.w2 *= scale
    grids = rng.standard_normal((3, 2, 2, 4))
    h = np.tanh(grids[1, 1, 0] @ params.w1.T + params.b1)
    params.b2[:] = target * rand_unit(rng, 3) - h @ params.w2.T
    raises_like_full_check(params, grids)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(8, 40), x0=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_patch_collapse_check_when_only_the_projection_rounds(k, x0, seed):
    # one hidden unit and power-of-2 output weights near 2**k, with a bias that
    # cancels them exactly on the patch at x0: that output is exactly zero,
    # while the projection divides by D = 3 and keeps a rounding residue of
    # about 2**k * 1e-16, above the floor for large k; the slack must cover it
    rng = np.random.default_rng(seed)
    params = init_params(1, 1, 3, 4)
    params.w1[:] = 1.0
    params.w2[:, 0] = 2.0**k * rng.choice([-1.0, 1.0], 3) * 2.0 ** rng.integers(0, 3, 3)
    grids = rng.uniform(-2.0, 2.0, (2, 2, 2, 1))
    grids[1, 0, 1] = x0
    h = np.tanh(grids.reshape(-1, 1))  # the block's hidden rows, as the encoder has them
    params.b2[:] = -params.w2[:, 0] * h[6, 0]
    assert raises_like_full_check(params, grids)


def test_patch_collapse_screen_skips_layer_2_per_patch(rng, monkeypatch):
    # on ordinary weights and tiles only the pooled rows go through layer 2
    params = init_params(6, 8, 5, 9, seed=14)
    grids = rng.standard_normal((40, 3, 3, 6))
    rows = []
    output = encoder._output
    monkeypatch.setattr(encoder, "_output", lambda p, h: rows.append(len(h)) or output(p, h))
    embed_images(params, grids)
    image_forward(params, grids)
    assert rows == [40, 40]


def test_image_forward_shape_errors(rng):
    params = init_params(6, 8, 5, 9, seed=4)
    with pytest.raises(ValueError, match="feature_dim"):
        image_forward(params, [rng.standard_normal((3, 3, 7))])
    with pytest.raises(ValueError, match="patches"):
        embed_images(params, [rng.standard_normal((2, 2, 6))])
    with pytest.raises(ValueError, match="grids"):
        image_forward(params, [rng.standard_normal((9, 6))])


def test_backward_patch_only_leaves_pooling_untouched(rng):
    params = init_params(4, 4, 4, 4, seed=7)
    features = rng.standard_normal((4, 4))
    _, cache = forward_patch_rows(params, features)
    grads = encoder_backward(params, cache, d_patch_embs=rand_unit(rng, (4, 4)))
    np.testing.assert_array_equal(grads["pool_logits"], 0.0)


def test_params_copy_independent():
    params = init_params(4, 4, 4, 4, seed=8)
    clone = params.copy()
    clone.w1[0, 0] += 1.0
    assert params.w1[0, 0] != clone.w1[0, 0]


def test_init_deterministic():
    a = init_params(4, 4, 4, 4, seed=9)
    b = init_params(4, 4, 4, 4, seed=9)
    for name in a.arrays():
        np.testing.assert_array_equal(a.arrays()[name], b.arrays()[name])
