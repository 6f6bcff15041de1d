from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (ap_at_k_bruteforce, load_density_grid, majority_class_per_tile, rand_unit,
                      upsample_logits)
from graft.evaluation import (
    DensityMap,
    average_precision_at_k,
    classify,
    majority_labels,
    multilabel_map,
    per_class_accuracy,
    retrieval_ap,
    retrieve,
    segment_patches,
)
from graft.geo import GeoPoint


def test_classify_tie_lowest_index():
    classes = np.stack([np.eye(3)[0], np.eye(3)[1], np.eye(3)[0], np.eye(3)[2]])
    query = (np.eye(3)[0] + np.eye(3)[1]) / np.sqrt(2)
    labels, scores = classify(np.stack([query, classes[3]]), classes)
    assert labels.tolist() == [0, 3]  # the query ties with classes 1 and 2
    np.testing.assert_array_equal(scores, np.stack([query, classes[3]]) @ classes.T)


def test_majority_labels_match_per_tile_bincount(rng):
    # half the tiles split two classes 98/98, so ties are common: the lower
    # class wins, as in one bincount per tile
    labels = rng.integers(0, 8, (40, 196))
    labels[:20] = np.repeat(rng.integers(0, 8, (20, 2)), 98, axis=1)
    grids = labels.reshape(-1, 14, 14)
    np.testing.assert_array_equal(majority_labels(grids, 8), majority_class_per_tile(grids))


def test_ap_perfect_ranking():
    assert average_precision_at_k([1, 1, 1], 3) == 1.0


def test_ap_hand_enumerated():
    assert average_precision_at_k([1, 0, 1], 3) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_ap_no_relevant():
    assert average_precision_at_k([0, 0, 0], 3) == 0.0


def test_ap_normalizer_uses_full_list_relevance():
    # three relevant in total, only one visible before k: divide by min(k, R)
    assert average_precision_at_k([1, 0, 0, 1, 1], 1) == 1.0
    assert average_precision_at_k([1, 0, 0, 1, 1], 2) == pytest.approx(0.5)


@settings(max_examples=300, deadline=None)
@given(
    flags=st.lists(st.integers(0, 1), min_size=1, max_size=50),
    k=st.integers(1, 60),
)
def test_ap_matches_bruteforce(flags, k):
    assert average_precision_at_k(flags, k) == pytest.approx(
        ap_at_k_bruteforce(flags, k), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    flags=st.lists(st.integers(0, 1), min_size=5, max_size=30),
    k=st.integers(1, 5),
    suffix=st.lists(st.integers(0, 1), max_size=10),
)
def test_ap_suffix_invariance_beyond_k(flags, k, suffix):
    # entries past rank k may change R only; with R fixed the value is identical
    base_relevant = sum(flags)
    extended = flags + [0] * len(suffix)
    assert average_precision_at_k(extended, k) == pytest.approx(
        average_precision_at_k(flags, k), abs=1e-12
    )
    del base_relevant


def test_multilabel_map_perfect():
    labels = np.array([[1, 0], [0, 1], [1, 0]])
    assert multilabel_map(labels.astype(float), labels) == 1.0


def test_multilabel_map_hand_case():
    # ranked relevance comes out as [1, 0, 1]
    scores = np.array([[0.9], [0.8], [0.5]])
    labels = np.array([[1], [0], [1]])
    assert multilabel_map(scores, labels) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_multilabel_map_relabel_invariance(rng):
    scores = rng.random((30, 5))
    labels = (rng.random((30, 5)) < 0.4).astype(int)
    labels[0] = 1  # ensure every class has a positive
    base = multilabel_map(scores, labels)
    perm = rng.permutation(5)
    assert multilabel_map(scores[:, perm], labels[:, perm]) == pytest.approx(base)


def test_multilabel_map_skips_empty_class(caplog):
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([[1, 0], [1, 0]])
    with caplog.at_level("WARNING"):
        value = multilabel_map(scores, labels)
    assert value == 1.0
    assert any("skipped" in r.message for r in caplog.records)
    with pytest.raises(ValueError):
        multilabel_map(scores, np.zeros_like(labels))


def ranked_ids(ids, ranking) -> list[str]:
    return [ids[i] for i in ranking[0]]


def test_retrieve_single_item():
    order, scores = retrieve(np.eye(3)[0], ["only"], np.eye(3)[:1])
    assert order.tolist() == [0]
    assert scores[0] == pytest.approx(1.0)


def test_retrieve_exact_match_first(rng):
    items = np.eye(4)
    order, scores = retrieve(items[2], ["a", "b", "c", "d"], items)
    assert order[0] == 2
    assert scores[0] == pytest.approx(1.0)


def test_retrieve_input_order_invariance(rng):
    embs = rand_unit(rng, (10, 6))
    ids = [f"i{k}" for k in range(10)]
    query = rand_unit(rng, 6)
    fwd = retrieve(query, ids, embs)
    rev = retrieve(query, ids[::-1], embs[::-1])
    assert ranked_ids(ids, fwd) == ranked_ids(ids[::-1], rev)
    np.testing.assert_allclose(fwd[1], rev[1])


def test_retrieve_ties_rank_by_ascending_id(rng):
    # basis vectors score exactly, so the four copies of each tie; they rank
    # by id as strings ("t10" before "t2"), whatever the input order
    embs = np.repeat(np.eye(3), 4, axis=0)
    ids = [f"t{i}" for i in range(12)]
    query = np.array([0.6, 0.8, 0.0])
    want = ["t4", "t5", "t6", "t7", "t0", "t1", "t2", "t3", "t10", "t11", "t8", "t9"]
    for perm in [np.arange(12), np.arange(12)[::-1], *(rng.permutation(12) for _ in range(8))]:
        shuffled = [ids[i] for i in perm]
        ranking = retrieve(query, shuffled, embs[perm])
        assert ranked_ids(shuffled, ranking) == want
        np.testing.assert_array_equal(ranking[1], np.repeat([0.8, 0.6, 0.0], 4))


def test_retrieval_ap_matches_bruteforce(rng):
    # class 5 labels no item, so its AP is 0 at every k
    embs = rand_unit(rng, (60, 8))
    class_embs = rand_unit(rng, (6, 8))
    labels = rng.integers(0, 5, 60)
    ids = [f"t{i:03d}" for i in rng.permutation(60)]
    ks = (100, 20, 3)
    rankings, aps = retrieval_ap(class_embs, ids, embs, labels, ks)
    assert aps.shape == (3, 6)
    label_of = dict(zip(ids, labels))
    for c, ranking in enumerate(rankings):
        assert ranked_ids(ids, ranking) == ranked_ids(ids, retrieve(class_embs[c], ids, embs))
        flags = [int(label_of[i] == c) for i in ranked_ids(ids, ranking)]
        for j, k in enumerate(ks):
            assert aps[j, c] == pytest.approx(ap_at_k_bruteforce(flags, k), abs=1e-12)
    np.testing.assert_array_equal(aps[:, 5], 0.0)


def test_segment_uniform_grid():
    classes = np.eye(4)
    patches = np.tile(classes[2], (3, 3, 1))
    labels, logits = segment_patches(patches, classes)
    np.testing.assert_array_equal(labels, 2)
    assert logits.shape == (3, 3, 4)


def test_segment_half_grids():
    classes = np.eye(4)
    patches = np.empty((2, 4, 4))
    patches[:, :2] = classes[0]
    patches[:, 2:] = classes[1]
    labels, _ = segment_patches(patches, classes)
    np.testing.assert_array_equal(labels[:, :2], 0)
    np.testing.assert_array_equal(labels[:, 2:], 1)


def test_segment_orthogonal_component_invariance(rng):
    classes = np.eye(6)[:3]  # three classes in the first three dims
    patches = rand_unit(rng, (4, 4, 6))
    labels, _ = segment_patches(patches, classes)
    shifted = patches + 5.0 * np.eye(6)[5]  # orthogonal to every class
    labels2, _ = segment_patches(shifted, classes)
    np.testing.assert_array_equal(labels, labels2)


def test_upsample_constant_grid():
    out = upsample_logits(np.full((3, 3, 2), 7.5), 4)
    assert out.shape == (12, 12, 2)
    np.testing.assert_allclose(out, 7.5, atol=1e-9)


def test_upsample_factor_one_identity(rng):
    grid = rng.random((4, 5, 3))
    np.testing.assert_array_equal(upsample_logits(grid, 1), grid)


def test_upsample_preserves_source_points(rng):
    grid = rng.standard_normal((5, 6, 3))
    out = upsample_logits(grid, 4)
    np.testing.assert_allclose(out[::4, ::4], grid, atol=1e-9)


def test_upsample_linear_ramp_exact_at_samples():
    rows = np.arange(6, dtype=float)
    cols = np.arange(7, dtype=float)
    ramp = rows[:, None] + 0.5 * cols[None, :]
    out = upsample_logits(ramp[:, :, None], 2)
    np.testing.assert_allclose(out[::2, ::2, 0], ramp, atol=1e-9)
    # Catmull-Rom has linear precision where the 4-tap stencil avoids the
    # clamped border: source coordinate in [1, n-2]
    for o_r in range(2, 2 * 4 + 1):
        for o_c in range(2, 2 * 5 + 1):
            expected = o_r / 2.0 + 0.5 * (o_c / 2.0)
            assert out[o_r, o_c, 0] == pytest.approx(expected, abs=1e-9)


def test_upsample_validation():
    with pytest.raises(ValueError):
        upsample_logits(np.zeros((2, 2, 1)), 0)
    with pytest.raises(ValueError):
        upsample_logits(np.zeros((2, 2, 1)), 1.5)


def test_upsample_then_argmax_differs_from_argmax_then_upsample():
    # class 0 has a sharp peak; class 1 a flat moderate level. Between samples
    # the interpolated peak can still dominate where the coarse argmax already
    # switched to class 1, so the operations do not commute without a margin.
    a = np.array([[4.0, 0.0, 0.0, 0.0]])
    b = np.array([[1.2, 1.2, 1.2, 1.2]])
    logits = np.stack([a, b], axis=-1)  # (1, 4, 2)
    factor = 4
    fine = upsample_logits(logits, factor)
    argmax_after = np.argmax(fine, axis=-1)
    coarse_labels = np.argmax(logits, axis=-1)
    nearest = np.repeat(np.repeat(coarse_labels, factor, axis=0), factor, axis=1)
    assert argmax_after.shape == nearest.shape
    assert np.any(argmax_after != nearest)


def test_per_class_accuracy_perfect():
    gt = np.array([[0, 1], [2, 2]])
    accs, mean = per_class_accuracy(gt, gt)
    assert accs == {0: 1.0, 1: 1.0, 2: 1.0}
    assert mean == 1.0


def test_per_class_accuracy_all_wrong():
    gt = np.zeros((3, 3), dtype=int)
    pred = np.ones((3, 3), dtype=int)
    accs, mean = per_class_accuracy(pred, gt)
    assert accs == {0: 0.0}
    assert mean == 0.0


def test_per_class_accuracy_absent_class_excluded():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 5], [1, 1]])
    accs, mean = per_class_accuracy(pred, gt)
    assert set(accs) == {0, 1}
    assert mean == pytest.approx((0.5 + 1.0) / 2)
    with pytest.raises(ValueError, match="equal dims"):
        per_class_accuracy(pred, gt[:1])


def test_density_grid_roundtrip(tmp_path, rng):
    scores = rng.uniform(-1, 1, size=(4, 6))
    dmap = DensityMap(scores, GeoPoint(42.5, -71.25), 224.0)
    path = tmp_path / "river.grid"
    dmap.save_grid(path)
    loaded = load_density_grid(path)
    assert loaded.scores.shape == (4, 6)
    np.testing.assert_allclose(loaded.scores, scores, atol=1e-6)
    assert loaded.origin == GeoPoint(42.5, -71.25)
    assert loaded.cell_m == 224.0


def test_density_pgm_format(tmp_path):
    scores = np.array([[-1.0, 0.0], [0.5, 1.0]])
    dmap = DensityMap(scores, GeoPoint(0, 0), 10.0)
    path = tmp_path / "m.pgm"
    dmap.save_pgm(path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = list(raw[len(b"P5\n2 2\n255\n"):])
    assert pixels == [0, 127, 191, 255]
