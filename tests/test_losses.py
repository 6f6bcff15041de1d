from __future__ import annotations

import math

import numpy as np
import pytest

from _oracles import (
    PixelCoord,
    avg_rep_oracle,
    fd_gradient,
    image_loss_oracle,
    l2_oracle,
    pack_groups,
    pixel_loss,
    pixel_loss_anchors_oracle,
    rand_unit,
    relative_error,
    split_groups,
    sum_prob_oracle,
)
from graft.frozen import UNIT_NORM_TOL, DegenerateEmbeddingError
from graft.losses import (
    LossConfig,
    image_loss,
    loss_avg_rep,
    loss_l2,
    loss_sum_prob,
    pixel_loss_anchors,
)

TAU = 0.07


def groups_of(*arrays):
    """The CSR pair (grounds, sizes) of per-tile ground arrays."""
    return pack_groups(arrays)


def random_instance(rng, n_b=None, d=None, max_grounds=3):
    """(sat (N_B, D), grounds (M, D), sizes (N_B,)) with 1..max_grounds grounds per tile."""
    n_b = n_b or int(rng.integers(2, 5))
    d = d or int(rng.integers(4, 17))
    grounds, sizes = pack_groups(
        [rand_unit(rng, (int(rng.integers(1, max_grounds + 1)), d)) for _ in range(n_b)]
    )
    return rand_unit(rng, (n_b, d)), grounds, sizes


def test_loss_config_validation():
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            LossConfig(tau=tau)
    with pytest.raises(ValueError):
        LossConfig(variant="bogus")
    assert LossConfig().tau == 0.07


def test_image_loss_single_pair_is_zero():
    e = np.zeros((1, 4))
    e[0, 0] = 1.0
    value, grad = image_loss(e, *groups_of(e), TAU)
    assert value == 0.0
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_image_loss_orthogonal_two_tiles_closed_form():
    s = np.eye(4)[:2]
    value, _ = image_loss(s, *groups_of(s[:1], s[1:2]), TAU)
    expected = np.log1p(np.exp(-1.0 / TAU))  # independent closed form
    assert value == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("sizes, n_anchors, message", [
    ([1, 1], 2, "summing to M"),  # three ground rows
    ([3, 0], 2, "sizes >= 1"),
    ([], 2, "summing to M"),
    ([2, 1], 3, "anchors shape"),
])
def test_losses_reject_inconsistent_csr_layout(sizes, n_anchors, message):
    grounds = np.eye(4)[:3]
    for fn in (image_loss, loss_sum_prob, loss_avg_rep):
        with pytest.raises(ValueError, match=message):
            fn(np.eye(4)[:n_anchors], grounds, np.array(sizes, dtype=int), TAU)
    with pytest.raises(ValueError, match=message):
        loss_l2(np.eye(4)[:n_anchors], grounds, np.array(sizes, dtype=int))
    if message != "anchors shape":
        with pytest.raises(ValueError, match=message):
            pixel_loss_anchors(grounds, grounds, np.array(sizes, dtype=int), TAU)


def test_image_loss_monotone_in_own_similarity():
    # rotate the anchor toward its positive inside their shared plane; all
    # other similarities stay fixed at zero by orthogonality.
    g_own = np.array([[1.0, 0.0, 0.0, 0.0]])
    g_other = np.array([[0.0, 0.0, 1.0, 0.0]])
    s_other = np.array([0.0, 0.0, 0.0, 1.0])
    values = []
    for theta in (0.2, 0.5, 0.8, 1.1):
        s_own = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0])
        value, _ = image_loss(
            np.stack([s_own, s_other]), *groups_of(g_own, g_other), TAU
        )
        values.append(value)
    assert all(a > b for a, b in zip(values[1:], values[:-1]))  # theta down -> sim up


@pytest.mark.parametrize("loss_fn", [image_loss, loss_sum_prob, loss_avg_rep])
def test_softmax_losses_fd_gradients(loss_fn, rng):
    for _ in range(15):
        sat, grounds, sizes = random_instance(rng)
        _, grad = loss_fn(sat, grounds, sizes, TAU)
        numeric = fd_gradient(lambda x: loss_fn(x, grounds, sizes, TAU)[0], sat)
        if np.linalg.norm(numeric) < 1e-6:
            continue  # gradient below the fd noise floor; nothing to compare
        assert relative_error(grad, numeric) <= 1e-4


def test_l2_fd_gradient(rng):
    for _ in range(15):
        sat, grounds, sizes = random_instance(rng)
        _, grad = loss_l2(sat, grounds, sizes)
        numeric = fd_gradient(lambda x: loss_l2(x, grounds, sizes)[0], sat)
        assert relative_error(grad, numeric) <= 1e-4


def test_reduction_identity_single_ground(rng):
    for _ in range(25):
        sat, grounds, sizes = random_instance(rng, max_grounds=1)
        v_img, g_img = image_loss(sat, grounds, sizes, TAU)
        v_sum, g_sum = loss_sum_prob(sat, grounds, sizes, TAU)
        v_avg, g_avg = loss_avg_rep(sat, grounds, sizes, TAU)
        assert abs(v_img - v_sum) <= 1e-12
        assert abs(v_img - v_avg) <= 1e-12
        np.testing.assert_allclose(g_img, g_sum, atol=1e-12)
        np.testing.assert_allclose(g_img, g_avg, atol=1e-12)


def test_sum_prob_equals_image_loss_on_duplicated_grounds():
    # with identical grounds in a group, log of the mean probability equals
    # the mean of the log probabilities, so the two formulations agree
    s = np.eye(4)[:1]
    dup = np.stack([np.eye(4)[0], np.eye(4)[0]])
    v_img, _ = image_loss(s, *groups_of(dup), TAU)
    v_sum, _ = loss_sum_prob(s, *groups_of(dup), TAU)
    assert v_img == pytest.approx(np.log(2.0), abs=1e-12)
    assert v_sum == pytest.approx(v_img, abs=1e-12)


def test_sum_prob_jensen_bound(rng):
    # log outside the mean can only lower the loss
    for _ in range(10):
        sat, grounds, sizes = random_instance(rng)
        v_img, _ = image_loss(sat, grounds, sizes, TAU)
        v_sum, _ = loss_sum_prob(sat, grounds, sizes, TAU)
        assert v_sum <= v_img + 1e-12


def test_avg_rep_degenerate_mean():
    s = np.eye(4)[:1]
    antipodal = np.stack([np.eye(4)[1], -np.eye(4)[1]])
    with pytest.raises(DegenerateEmbeddingError):
        loss_avg_rep(s, *groups_of(antipodal), TAU)


def test_avg_rep_mean_with_norm_at_the_floor_is_normalized():
    # the group mean is (0, 1e-9), whose norm equals the floor exactly: only a
    # norm below the floor is degenerate
    grounds = np.array([[1.0, 0.0], [-1.0, 2e-9]])
    assert np.linalg.norm(grounds.mean(axis=0)) == UNIT_NORM_TOL
    value, grad = loss_avg_rep(np.array([[0.0, 1.0]]), *groups_of(grounds), TAU)
    assert np.isfinite(value) and np.isfinite(grad).all()


def test_l2_identical_pairs_zero():
    s = np.eye(5)[:2]
    value, grad = loss_l2(s, *groups_of(s[:1], s[1:2]))
    assert value == 0.0
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_l2_orthogonal_distance_two():
    s = np.eye(4)[:1]
    value, _ = loss_l2(s, *groups_of(np.eye(4)[1:2]))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_permutation_invariance(rng):
    sat, grounds, sizes = random_instance(rng, n_b=4, d=8)
    base = {
        "image": image_loss(sat, grounds, sizes, TAU)[0],
        "sum": loss_sum_prob(sat, grounds, sizes, TAU)[0],
        "avg": loss_avg_rep(sat, grounds, sizes, TAU)[0],
        "l2": loss_l2(sat, grounds, sizes)[0],
    }
    perm = rng.permutation(4)
    sat_p = sat[perm]
    groups = split_groups(grounds, sizes)
    # also shuffle members inside each group
    grounds_p, sizes_p = pack_groups([groups[i][rng.permutation(len(groups[i]))] for i in perm])
    assert image_loss(sat_p, grounds_p, sizes_p, TAU)[0] == pytest.approx(base["image"], abs=1e-10)
    assert loss_sum_prob(sat_p, grounds_p, sizes_p, TAU)[0] == pytest.approx(base["sum"], abs=1e-10)
    assert loss_avg_rep(sat_p, grounds_p, sizes_p, TAU)[0] == pytest.approx(base["avg"], abs=1e-10)
    assert loss_l2(sat_p, grounds_p, sizes_p)[0] == pytest.approx(base["l2"], abs=1e-10)


def test_extreme_logit_stability():
    # antipodal pair at tau = 1/600 drives |sim/tau| to 600
    tau = 1.0 / 600.0
    s = np.stack([np.eye(3)[0], -np.eye(3)[0]])
    grounds, sizes = groups_of(s[:1], s[1:2])
    for fn in (image_loss, loss_sum_prob, loss_avg_rep):
        value, grad = fn(s, grounds, sizes, tau)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))


def test_pixel_loss_single_tile_zero():
    grid = np.zeros((2, 2, 4))
    grid[..., 0] = 1.0  # every patch embedding = e0
    value, grads = pixel_loss([grid], [[PixelCoord(5, 20)]], *groups_of(np.eye(4)[:1]), TAU,
                              patch_px=16)
    assert value == 0.0
    np.testing.assert_allclose(grads[0], 0.0, atol=1e-15)


def test_pixel_loss_orthogonal_closed_form():
    e = np.eye(4)
    grid_a = np.tile(e[0], (2, 2, 1))
    grid_b = np.tile(e[1], (2, 2, 1))
    pixels = [[PixelCoord(0, 0)], [PixelCoord(17, 17)]]
    value, _ = pixel_loss([grid_a, grid_b], pixels, *groups_of(e[:1], e[1:2]), TAU, patch_px=16)
    assert value == pytest.approx(np.log1p(np.exp(-1.0 / TAU)), abs=1e-10)


def test_pixel_loss_zero_grad_on_unsupervised_patches(rng):
    d = 6
    grids = [rand_unit(rng, (3, 3, d)), rand_unit(rng, (3, 3, d))]
    grounds, sizes = groups_of(rand_unit(rng, (2, d)), rand_unit(rng, (1, d)))
    pixels = [[PixelCoord(0, 0), PixelCoord(0, 17)], [PixelCoord(40, 40)]]
    _, grads = pixel_loss(grids, pixels, grounds, sizes, TAU, patch_px=16)
    touched = {(0, 0, 0), (0, 0, 1), (1, 2, 2)}
    for t, grad in enumerate(grads):
        for r in range(3):
            for c in range(3):
                if (t, r, c) in touched:
                    assert np.any(grad[r, c] != 0.0)
                else:
                    np.testing.assert_array_equal(grad[r, c], 0.0)


def test_pixel_loss_shared_patch_accumulates(rng):
    d = 5
    grid = rand_unit(rng, (2, 2, d))
    grounds, sizes = groups_of(rand_unit(rng, (2, d)), rand_unit(rng, (1, d)))
    grids = [grid, rand_unit(rng, (2, 2, d))]
    # both grounds of tile 0 land in the same patch
    pixels = [[PixelCoord(3, 3), PixelCoord(12, 8)], [PixelCoord(0, 0)]]
    value, grads = pixel_loss(grids, pixels, grounds, sizes, TAU, patch_px=16)
    assert np.isfinite(value)
    assert np.any(grads[0][0, 0] != 0)


def test_pixel_loss_out_of_grid_pixel():
    grid = np.zeros((2, 2, 4))
    grid[..., 0] = 1.0
    with pytest.raises(ValueError, match="outside grid"):
        pixel_loss([grid], [[PixelCoord(100, 0)]], *groups_of(np.eye(4)[:1]), TAU, patch_px=16)


def test_pixel_loss_anchors_fd(rng):
    for _ in range(10):
        n_b = int(rng.integers(2, 4))
        d = int(rng.integers(4, 9))
        grounds, sizes = pack_groups(
            [rand_unit(rng, (int(rng.integers(1, 3)), d)) for _ in range(n_b)]
        )
        anchors = rand_unit(rng, grounds.shape)
        _, grad = pixel_loss_anchors(anchors, grounds, sizes, TAU)
        numeric = fd_gradient(
            lambda x: pixel_loss_anchors(x, grounds, sizes, TAU)[0], anchors
        )
        if np.linalg.norm(numeric) < 1e-6:
            continue
        assert relative_error(grad, numeric) <= 1e-4


def test_pixel_grid_grads_match_anchor_grads(rng):
    # the grid interface is a gather/scatter around the anchor-level core
    d = 6
    grids = [rand_unit(rng, (2, 2, d)) for _ in range(2)]
    grounds, sizes = groups_of(rand_unit(rng, (2, d)), rand_unit(rng, (1, d)))
    pixels = [[PixelCoord(0, 0), PixelCoord(16, 16)], [PixelCoord(16, 0)]]
    value_grid, grads = pixel_loss(grids, pixels, grounds, sizes, TAU, patch_px=16)
    anchors = np.stack([grids[0][0, 0], grids[0][1, 1], grids[1][1, 0]])
    value_anchor, d_anchors = pixel_loss_anchors(anchors, grounds, sizes, TAU)
    assert value_grid == pytest.approx(value_anchor, abs=1e-15)
    np.testing.assert_allclose(grads[0][0, 0], d_anchors[0], atol=1e-15)
    np.testing.assert_allclose(grads[0][1, 1], d_anchors[1], atol=1e-15)
    np.testing.assert_allclose(grads[1][1, 0], d_anchors[2], atol=1e-15)


@pytest.mark.parametrize(
    "loss_fn, oracle",
    [
        (image_loss, image_loss_oracle),
        (loss_sum_prob, sum_prob_oracle),
        (loss_avg_rep, avg_rep_oracle),
        (pixel_loss_anchors, pixel_loss_anchors_oracle),
        (loss_l2, l2_oracle),
    ],
)
@pytest.mark.parametrize("tau", [TAU, 1.0, 1e-3])
def test_softmax_losses_match_two_exp_oracle(loss_fn, oracle, tau, rng):
    # At tau = 1e-3 the logits reach 1e3 and overflow an unshifted exp. Their
    # rounding, and so the gradient's, grows as 1/tau: scale the tolerance.
    tol = 1e-12 * max(1.0, TAU / tau)
    extra = () if loss_fn is loss_l2 else (tau,)  # l2 has no temperature
    for _ in range(20):
        # group sizes up to the pair cap of 25, as in a dense world's batches
        sat, grounds, sizes = random_instance(rng, n_b=int(rng.integers(2, 12)), max_grounds=25)
        if loss_fn is pixel_loss_anchors:
            sat = rand_unit(rng, grounds.shape)
        value, grad = loss_fn(sat, grounds, sizes, *extra)
        want_value, want_grad = oracle(sat, split_groups(grounds, sizes), *extra)
        assert abs(value - want_value) <= tol
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=tol)


def test_losses_leave_inputs_untouched(rng):
    sat, grounds, sizes = random_instance(rng, n_b=5, max_grounds=4)
    anchors = rand_unit(rng, grounds.shape)
    grids = [rand_unit(rng, (2, 2, sat.shape[1])) for _ in sizes]
    pixels = [[PixelCoord(16 * (j % 2), 16 * (j // 2 % 2)) for j in range(n)] for n in sizes]
    inputs = [sat, anchors, *grids, grounds, sizes]
    before = [a.copy() for a in inputs]
    image_loss(sat, grounds, sizes, TAU)
    loss_sum_prob(sat, grounds, sizes, TAU)
    loss_avg_rep(sat, grounds, sizes, TAU)
    loss_l2(sat, grounds, sizes)
    pixel_loss_anchors(anchors, grounds, sizes, TAU)
    pixel_loss(grids, pixels, grounds, sizes, TAU, patch_px=16)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()
