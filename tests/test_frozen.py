from __future__ import annotations

import numpy as np
import pytest

from graft.frozen import (
    DEFAULT_PROMPTS,
    DegenerateEmbeddingError,
    FrozenEncoder,
    MissingEmbeddingError,
    PromptSet,
    embed_grounds,
    embed_text,
    load_embeddings,
    save_embeddings,
    unit,
)


def encoder_of(table: dict) -> FrozenEncoder:
    return FrozenEncoder.from_vectors(list(table), list(table.values()))


def save_table(path, table: dict) -> None:
    save_embeddings(path, list(table), list(table.values()))


def basis(i, d=8):
    v = np.zeros(d)
    v[i] = 1.0
    return v


@pytest.fixture
def encoder():
    return encoder_of({"7": basis(0), "8": basis(1), "9": unit(np.ones(8))})


def test_embed_ground_lookup(encoder):
    np.testing.assert_array_equal(embed_grounds(encoder, ["7"]), [basis(0)])
    np.testing.assert_array_equal(embed_grounds(encoder, ["8", "7", "8"]),
                                  [basis(1), basis(0), basis(1)])
    assert embed_grounds(encoder, []).shape == (0, 8)


def test_embed_ground_frozen_bits(encoder):
    a = embed_grounds(encoder, ["9"])
    b = embed_grounds(encoder, ["9"])
    assert a.tobytes() == b.tobytes()


def test_embed_ground_missing(encoder):
    # the first missing ref in lookup order is the one named
    with pytest.raises(MissingEmbeddingError, match="no embedding for ref 'nope'"):
        embed_grounds(encoder, ["7", "nope", "other"])


def test_default_prompts():
    assert DEFAULT_PROMPTS == (
        "A photo of a {label}",
        "A photo taken from inside a {label}",
        "I took a photo from a {label}",
    )


def test_promptset_validation():
    with pytest.raises(ValueError):
        PromptSet(())
    with pytest.raises(ValueError):
        PromptSet(("no slot here",))
    with pytest.raises(ValueError):
        PromptSet(("{label} and {label}",))
    assert PromptSet(("a {label}",)).render("dam") == ["a dam"]


def test_embed_text_single_prompt():
    enc = encoder_of({"a photo of a lake": basis(2)})
    prompts = PromptSet(("a photo of a {label}",))
    np.testing.assert_allclose(embed_text(enc, "lake", prompts), basis(2))


def test_embed_text_mean_then_renormalize():
    e0, e1 = basis(0), basis(1)
    enc = encoder_of({"p1 lake": e0, "p2 lake": e1})
    prompts = PromptSet(("p1 {label}", "p2 {label}"))
    out = embed_text(enc, "lake", prompts)
    np.testing.assert_allclose(out, unit(e0 + e1), atol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_embed_text_identical_prompt_entries_idempotent():
    enc = encoder_of({"p1 lake": basis(3), "p2 lake": basis(3)})
    out = embed_text(enc, "lake", PromptSet(("p1 {label}", "p2 {label}")))
    np.testing.assert_allclose(out, basis(3), atol=1e-12)


def test_embed_text_degenerate_mean():
    enc = encoder_of({"p1 lake": basis(0), "p2 lake": -basis(0)})
    with pytest.raises(DegenerateEmbeddingError):
        embed_text(enc, "lake", PromptSet(("p1 {label}", "p2 {label}")))


def test_embed_text_missing_names_prompt():
    enc = encoder_of({"p1 lake": basis(0)})
    with pytest.raises(MissingEmbeddingError, match="p2 lake"):
        embed_text(enc, "lake", PromptSet(("p1 {label}", "p2 {label}")))


def test_from_vectors_normalizes_and_checks_dims():
    enc = encoder_of({"x": np.full(4, 2.0)})
    assert np.linalg.norm(enc.vectors[enc.index["x"]]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        encoder_of({"x": np.ones(4), "y": np.ones(5)})
    with pytest.raises(ValueError):
        encoder_of({})
    with pytest.raises(ValueError, match="duplicate key 'x'"):
        FrozenEncoder.from_vectors(["x", "y", "x"], np.ones((3, 4)))


def test_fixture_roundtrip(tmp_path, rng):
    table = {f"k{i}": unit(rng.standard_normal(12)) for i in range(20)}
    path = tmp_path / "emb.bin"
    save_table(path, table)
    loaded = load_embeddings(path)
    assert loaded.dim == 12
    assert loaded.keys == sorted(table)
    for key in table:
        # f32 storage quantizes; entries are re-normalized on load
        row = loaded.vectors[loaded.index[key]]
        np.testing.assert_allclose(row, table[key], atol=1e-6)
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)


def test_fixture_identical_bytes(tmp_path, rng):
    table = {f"k{i}": unit(rng.standard_normal(6)) for i in range(5)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_table(p1, table)
    save_table(p2, dict(reversed(list(table.items()))))  # order-insensitive
    assert p1.read_bytes() == p2.read_bytes()


def test_fixture_truncated(tmp_path, rng):
    path = tmp_path / "emb.bin"
    save_table(path, {"k": unit(rng.standard_normal(6))})
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match="truncated"):
        load_embeddings(path)


def test_content_hash_stable(encoder):
    h1 = encoder.content_hash()
    h2 = encoder.content_hash()
    assert h1 == h2
    other = encoder_of({"7": basis(1)})
    assert other.content_hash() != h1
