"""Frozen reference encoders for ground images and text, backed by fixture tables.

The ground-image and text encoders are never trained here; each is a table of
unit-norm vectors living in one shared representation space, held as a key
list and one (N, D) float64 matrix, so a lookup of many keys is one gather. A
fixture file is read and written a whole table at a time. Text queries go
through prompt ensembling: each template is rendered with the label, the
per-prompt embeddings are averaged, and the mean is re-normalized.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import Reader, Writer, read_file

DEFAULT_PROMPTS = (
    "A photo of a {label}",
    "A photo taken from inside a {label}",
    "I took a photo from a {label}",
)

UNIT_NORM_TOL = 1e-9


class MissingEmbeddingError(KeyError):
    """An embedding reference or rendered prompt has no fixture entry."""


class DegenerateEmbeddingError(ValueError):
    """A vector with a non-finite or (near-)zero norm cannot be normalized."""


def unit(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit L2 norm; a non-finite or (near-)zero vector raises."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if not math.isfinite(n) or n < UNIT_NORM_TOL:
        raise DegenerateEmbeddingError(f"cannot normalize vector with norm {n:.3e}")
    return v / n


@dataclass(frozen=True)
class PromptSet:
    """Non-empty prompt templates, each with exactly one {label} slot."""

    templates: tuple[str, ...] = DEFAULT_PROMPTS

    def __post_init__(self):
        if not self.templates:
            raise ValueError("PromptSet needs at least one template")
        for t in self.templates:
            if t.count("{label}") != 1:
                raise ValueError(f"template {t!r} must contain exactly one {{label}}")

    def render(self, label: str) -> list[str]:
        return [t.format(label=label) for t in self.templates]


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a (N, D) matrix, one vectorized pass.

    Each norm is the square root of a row's dot product with itself, the same
    reduction `unit` takes, so a row divided by its norm is bit-identical to
    `unit(row)`.
    """
    return np.sqrt((mat[:, None, :] @ mat[:, :, None])[:, 0, 0])


def first_repeat(keys: Sequence[str]) -> int | None:
    """Index of the first key equal to an earlier one; None if all differ."""
    if len(set(keys)) == len(keys):
        return None
    seen: set[str] = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)


@dataclass(eq=False)
class FrozenEncoder:
    """Read-only table of unit-norm embeddings: row i of `vectors` is `keys[i]`'s.

    `index` maps each key to its row, so a lookup of many keys is one gather.
    """

    keys: list[str]
    vectors: np.ndarray  # (N, D) float64
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or len(self.vectors) != len(self.keys):
            raise ValueError(f"{len(self.keys)} keys for vectors of shape {self.vectors.shape}")
        self.index = dict(zip(self.keys, range(len(self.keys))))
        if len(self.index) != len(self.keys):
            raise ValueError(f"duplicate key {self.keys[first_repeat(self.keys)]!r}")
        bad = ~(np.abs(_row_norms(self.vectors) - 1.0) <= UNIT_NORM_TOL)
        if bad.any():
            raise ValueError(f"entry {self.keys[int(np.argmax(bad))]!r} is not unit-norm")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def from_vectors(cls, keys: Sequence[str], vectors) -> "FrozenEncoder":
        """Build an encoder, normalizing each row; a degenerate row raises."""
        if not len(keys):
            raise ValueError("empty embedding table")
        mat = np.asarray(vectors, dtype=np.float64)
        norms = _row_norms(mat)
        bad = ~np.isfinite(norms) | (norms < UNIT_NORM_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateEmbeddingError(
                f"cannot normalize entry {keys[i]!r} with norm {norms[i]:.3e}"
            )
        return cls(keys=list(keys), vectors=mat / norms[:, None])

    def rows(self, keys: Sequence[str], what: str = "ref") -> np.ndarray:
        """The row of each key; the first key without one raises MissingEmbeddingError."""
        try:
            return np.fromiter(map(self.index.__getitem__, keys), np.intp, len(keys))
        except KeyError as exc:
            raise MissingEmbeddingError(f"no embedding for {what} {exc.args[0]!r}") from None

    def content_hash(self) -> str:
        """SHA-256 over the sorted table; constant across a training run."""
        h = hashlib.sha256()
        for i in sorted(range(len(self.keys)), key=self.keys.__getitem__):
            h.update(self.keys[i].encode("utf-8"))
            h.update(self.vectors[i].tobytes())
        return h.hexdigest()


def embed_grounds(enc: FrozenEncoder, refs: Sequence[str]) -> np.ndarray:
    """(len(refs), D) frozen ground-image embeddings, one gather; a missing ref raises."""
    return enc.vectors[enc.rows(refs)]


def embed_text(enc: FrozenEncoder, label: str, prompts: PromptSet) -> np.ndarray:
    """Prompt-ensembled text embedding: mean over rendered prompts, re-normalized."""
    mean = np.mean(enc.vectors[enc.rows(prompts.render(label), "prompt")], axis=0)
    return unit(mean)


def save_embeddings(path: str | Path, keys: Sequence[str], vectors) -> None:
    """Write a fixture file: header (count, dim), then (key, dim x f32) entries.

    Row i of `vectors` is `keys[i]`'s. Entries are written in sorted key order,
    so identical tables produce identical bytes, as one record table.
    """
    vectors = np.asarray(vectors)
    if not len(keys):
        raise ValueError("refusing to write an empty embedding fixture")
    if vectors.ndim != 2 or len(vectors) != len(keys):
        raise ValueError(f"{len(keys)} keys for vectors of shape {vectors.shape}")
    if (i := first_repeat(keys)) is not None:
        raise ValueError(f"duplicate key {keys[i]!r}")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rows = np.ascontiguousarray(vectors[order], dtype="<f4")
    w = Writer()
    w.pack("<II", len(keys), vectors.shape[1])
    w.records([list(map(keys.__getitem__, order)), rows.view(np.uint8)])
    w.save(path)


def load_embeddings(path: str | Path) -> FrozenEncoder:
    """Load a fixture file written by save_embeddings; entries are re-normalized.

    One scan of the key lengths finds the entries; the vectors are gathered
    and checked at once. An empty table, a count the file cannot hold, a
    duplicate key, and an entry that is non-finite or has (near-)zero norm all
    raise FormatError naming the entry and its byte offset.
    """
    r = Reader(read_file(path), f"embedding fixture {path}")
    count, dim = r.unpack("<II")
    if count == 0:
        raise r.fail("empty table", 0)
    keys, (rows,), starts, failure = r.records(count, (4 * dim,))
    if failure is not None:
        raise failure
    r.done()
    if (i := first_repeat(keys)) is not None:
        raise r.fail(f"duplicate key {keys[i]!r}", int(starts[i]))
    vecs = rows.view("<f4").astype(np.float64)
    norms = _row_norms(vecs)
    bad = ~np.isfinite(norms) | (norms < UNIT_NORM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise r.fail(f"entry {keys[i]!r} has norm {norms[i]:.3e}", int(starts[i]))
    return FrozenEncoder(keys=keys, vectors=vecs / norms[:, None])
