"""Frozen reference encoders for ground images and text, backed by fixture tables.

The ground-image and text encoders are never trained here; they are lookup
tables of unit-norm vectors living in one shared representation space. Text
queries go through prompt ensembling: each template is rendered with the label,
the per-prompt embeddings are averaged, and the mean is re-normalized.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import Reader, Writer

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


@dataclass
class FrozenEncoder:
    """Read-only table of unit-norm embeddings keyed by reference string."""

    table: dict[str, np.ndarray]
    dim: int

    def __post_init__(self):
        for key, vec in self.table.items():
            if vec.shape != (self.dim,):
                raise ValueError(
                    f"entry {key!r} has shape {vec.shape}, expected ({self.dim},)"
                )
            if not abs(float(np.linalg.norm(vec)) - 1.0) <= UNIT_NORM_TOL:
                raise ValueError(f"entry {key!r} is not unit-norm")

    @classmethod
    def from_vectors(cls, vectors: dict[str, np.ndarray]) -> "FrozenEncoder":
        """Build an encoder, normalizing each entry."""
        if not vectors:
            raise ValueError("empty embedding table")
        dims = {v.shape[-1] for v in vectors.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
        table = {k: unit(v) for k, v in vectors.items()}
        return cls(table=table, dim=dims.pop())

    def content_hash(self) -> str:
        """SHA-256 over the sorted table; constant across a training run."""
        h = hashlib.sha256()
        for key in sorted(self.table):
            h.update(key.encode("utf-8"))
            h.update(self.table[key].tobytes())
        return h.hexdigest()


def embed_ground(enc: FrozenEncoder, ref: str) -> np.ndarray:
    """Frozen ground-image embedding for a reference; missing ref raises."""
    try:
        return enc.table[ref]
    except KeyError:
        raise MissingEmbeddingError(f"no embedding for ref {ref!r}") from None


def embed_text(enc: FrozenEncoder, label: str, prompts: PromptSet) -> np.ndarray:
    """Prompt-ensembled text embedding: mean over rendered prompts, re-normalized."""
    vecs = []
    for rendered in prompts.render(label):
        if rendered not in enc.table:
            raise MissingEmbeddingError(f"no embedding for prompt {rendered!r}")
        vecs.append(enc.table[rendered])
    mean = np.mean(vecs, axis=0)
    return unit(mean)


def save_embeddings(path: str | Path, table: dict[str, np.ndarray]) -> None:
    """Write a fixture file: header (count, dim), then (key, dim x f32) entries.

    Keys are written in sorted order so identical tables produce identical bytes.
    """
    if not table:
        raise ValueError("refusing to write an empty embedding fixture")
    dims = {v.shape[-1] for v in table.values()}
    if len(dims) != 1:
        raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
    w = Writer()
    w.pack("<II", len(table), dims.pop())
    for key in sorted(table):
        w.string(key)
        w.array(table[key], "<f4")
    w.save(path)


def load_embeddings(path: str | Path) -> FrozenEncoder:
    """Load a fixture file written by save_embeddings; entries are re-normalized.

    An empty table, a duplicate key, and an entry that is non-finite or has
    (near-)zero norm all raise FormatError naming the entry and its byte offset.
    """
    r = Reader(Path(path).read_bytes(), f"embedding fixture {path}")
    count, dim = r.unpack("<II")
    if count == 0:
        raise r.fail("empty table", 0)
    starts, keys, rows = [], [], []
    for _ in range(count):
        starts.append(r.off)
        keys.append(r.string())
        rows.append(r.array("<f4", (dim,)))
    r.done()
    first: dict[str, int] = {}
    for i, key in enumerate(keys):
        if first.setdefault(key, i) != i:
            raise r.fail(f"duplicate key {key!r}", starts[i])
    vecs = np.array(rows, dtype=np.float64)
    norms = np.linalg.norm(vecs, axis=1)
    bad = ~np.isfinite(norms) | (norms < UNIT_NORM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise r.fail(f"entry {keys[i]!r} has norm {norms[i]:.3e}", starts[i])
    return FrozenEncoder.from_vectors(dict(zip(keys, vecs)))
