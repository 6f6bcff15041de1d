from __future__ import annotations

import numpy as np
import pytest

from _oracles import fd_gradient_inplace, rand_unit, relative_error
from graft import encoder
from graft.encoder import (
    embed_images,
    encoder_backward,
    encoder_forward,
    forward_patch_rows,
    forward_tile,
    image_backward,
    image_forward,
    init_params,
)


def test_zero_hidden_weights_constant_patches(rng):
    params = init_params(5, 3, 4, 4, seed=1)
    params.w1[:] = 0.0
    params.b1[:] = rng.standard_normal(3)
    params.b2[:] = 0.0
    features = rng.standard_normal((2, 2, 5))
    patch_embs, _ = encoder_forward(params, features)
    expected = params.w2 @ np.tanh(params.b1)
    expected /= np.linalg.norm(expected)
    for r in range(2):
        for c in range(2):
            np.testing.assert_allclose(patch_embs[r, c], expected, atol=1e-12)


def test_outputs_unit_norm(rng):
    params = init_params(6, 8, 5, 9, seed=2)
    features = rng.standard_normal((3, 3, 6))
    patch_embs, image_emb = encoder_forward(params, features)
    np.testing.assert_allclose(np.linalg.norm(patch_embs, axis=-1), 1.0, atol=1e-9)
    assert np.linalg.norm(image_emb) == pytest.approx(1.0, abs=1e-9)


def test_patch_permutation_symmetry(rng):
    params = init_params(6, 8, 5, 9, seed=3)  # pool_logits start uniform
    features = rng.standard_normal((3, 3, 6))
    patch_embs, image_emb = encoder_forward(params, features)
    perm = rng.permutation(9)
    shuffled = features.reshape(9, 6)[perm].reshape(3, 3, 6)
    patch_embs_p, image_emb_p = encoder_forward(params, shuffled)
    np.testing.assert_allclose(
        patch_embs_p.reshape(9, -1), patch_embs.reshape(9, -1)[perm], atol=1e-12
    )
    np.testing.assert_allclose(image_emb_p, image_emb, atol=1e-12)


def test_dimension_mismatch_errors(rng):
    params = init_params(6, 8, 5, 9, seed=4)
    with pytest.raises(ValueError, match="feature_dim"):
        encoder_forward(params, rng.standard_normal((3, 3, 7)))
    with pytest.raises(ValueError, match="patches"):
        encoder_forward(params, rng.standard_normal((2, 2, 6)))


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
    grids = [rng.standard_normal((3, 3, 6)).astype(np.float32) for _ in range(5)]
    want = np.array([encoder_forward(params, g)[1] for g in grids])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "IMAGE_BLOCK_ROWS", 18)
        embs, cache = image_forward(params, grids)
        assert [start for start, _, _ in cache.blocks] == [0, 2, 4]
        np.testing.assert_allclose(embs, want, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(embed_images(params, grids), embs)
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
