"""Zero-shot evaluation heads: classification, retrieval metrics, patch
segmentation at patch resolution, and query density maps.

Everything scores unit embeddings by cosine (a plain dot product). Ties break
toward the lower class index or lexicographically smaller item id so repeated
runs produce identical rankings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoder
from .frozen import FrozenEncoder, PromptSet, embed_text
from .geo import GeoPoint

log = logging.getLogger(__name__)


def class_embeddings(text_encoder: FrozenEncoder, class_names: Sequence[str],
                     prompts: PromptSet) -> np.ndarray:
    """(K, D) prompt-averaged text embedding of each class name."""
    return np.stack([embed_text(text_encoder, name, prompts) for name in class_names])


def majority_labels(grids: np.ndarray, n_classes: int) -> np.ndarray:
    """Most frequent class of each of N (N, G, G) class grids, the lowest on a tie."""
    keys = np.arange(len(grids))[:, None] * n_classes + np.reshape(grids, (len(grids), -1))
    counts = np.bincount(keys.ravel(), minlength=len(grids) * n_classes)
    return counts.reshape(-1, n_classes).argmax(axis=1)


def classify(image_embs: np.ndarray, class_embs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax class of each image embedding (exact ties to the lowest class
    index) and the (N, K) cosine score matrix it is taken from."""
    scores = np.asarray(image_embs, dtype=np.float64) @ np.asarray(class_embs, dtype=np.float64).T
    return np.argmax(scores, axis=1), scores


def average_precision_at_k(relevance: Sequence[int], k: int) -> float:
    """AP truncated at rank k, normalized by min(k, R).

    R is the number of relevant items in the *full* list, so a perfect
    ranking scores 1.0 even when R > k; no relevant items scores 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    flags = np.asarray(relevance, dtype=np.float64)
    total_relevant = int(flags.sum())
    if total_relevant == 0:
        return 0.0
    top = flags[:k]
    precision = np.cumsum(top) / (np.arange(len(top)) + 1.0)
    return float(np.sum(precision * top) / min(k, total_relevant))


def multilabel_map(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean average precision (area under the precision-recall curve).

    Per class, items are ranked by score (ties by item index) and AP is the
    mean of the precision values at each positive. Classes without a single
    positive are skipped and logged; if nothing remains, that's an error.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be (items, classes)")
    aps: list[float] = []
    skipped: list[int] = []
    for c in range(scores.shape[1]):
        if not labels[:, c].any():
            skipped.append(c)
            continue
        rel = labels[np.argsort(-scores[:, c], kind="stable"), c]
        aps.append(average_precision_at_k(rel, len(rel)))
    if skipped:
        log.warning("multilabel_map: skipped %d class(es) without positives: %s",
                    len(skipped), skipped)
    if not aps:
        raise ValueError("no class has a positive label")
    return float(np.mean(aps))


def retrieve(
    query_emb: np.ndarray,
    item_ids: Sequence[str],
    item_embs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Item positions ranked by cosine against the query, ties by ascending id,
    and the scores in that order."""
    item_embs = np.asarray(item_embs, dtype=np.float64)
    if len(item_ids) != item_embs.shape[0]:
        raise ValueError("item_ids and item_embs must align")
    scores = item_embs @ np.asarray(query_emb, dtype=np.float64)
    order = np.lexsort((np.asarray(item_ids), -scores))
    return order, scores[order]


def retrieval_ap(
    class_embs: np.ndarray,
    item_ids: Sequence[str],
    item_embs: np.ndarray,
    labels: np.ndarray,
    ks: Sequence[int],
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Each class embedding's `retrieve` ranking of the items, and the
    (len(ks), K) AP@k of each class at each k; an item is relevant to class c
    if its label is c."""
    rankings = [retrieve(query, item_ids, item_embs) for query in class_embs]
    relevant = [np.asarray(labels)[order] == c for c, (order, _) in enumerate(rankings)]
    return rankings, np.array([[average_precision_at_k(rel, k) for rel in relevant] for k in ks])


def segment_patches(
    patch_embs: np.ndarray, class_embs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch class logits and argmax labels (lowest index wins ties)."""
    patch_embs = np.asarray(patch_embs, dtype=np.float64)
    class_embs = np.asarray(class_embs, dtype=np.float64)
    logits = patch_embs @ class_embs.T  # (..., K)
    labels = np.argmax(logits, axis=-1)
    return labels, logits


def segment_tiles(params: encoder.SatEncoderParams, features: np.ndarray,
                  class_embs: np.ndarray) -> np.ndarray:
    """(N, P) patch labels of N tiles' (N, G, G, F) feature grids, from one
    patch-level forward and one `segment_patches` call per block of whole tiles
    (`encoder.IMAGE_BLOCK_ROWS` patch rows), so memory stays at one block."""
    labels = np.empty((len(features), params.n_patches), dtype=np.intp)
    per_block = max(1, encoder.IMAGE_BLOCK_ROWS // params.n_patches)
    for start in range(0, len(features), per_block):
        block = features[start : start + per_block]
        rows = block.reshape(-1, block.shape[-1])
        patch_labels, _ = segment_patches(encoder.forward_patch_rows(params, rows)[0], class_embs)
        labels[start : start + len(block)] = patch_labels.reshape(len(block), -1)
    return labels


def per_class_accuracy(pred: np.ndarray, gt: np.ndarray) -> tuple[dict[int, float], float]:
    """Accuracy per class present in the ground truth, and their mean; classes
    absent from the ground truth do not appear at all. Classes are indices >= 0."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"pred {pred.shape} and gt {gt.shape} must have equal dims")
    gt = gt.ravel()
    counts = np.bincount(gt)
    hits = np.bincount(gt[pred.ravel() == gt], minlength=len(counts))
    present = np.flatnonzero(counts)
    accs = dict(zip(present.tolist(), (hits[present] / counts[present]).tolist()))
    return accs, float(np.mean(list(accs.values())))


@dataclass
class DensityMap:
    """Cosine scores of one text query over a geographic grid of tiles.

    `origin` is the center of cell (0, 0) (top-left, northernmost row);
    `cell_m` is the ground spacing between adjacent cell centers.
    """

    scores: np.ndarray  # (rows, cols)
    origin: GeoPoint
    cell_m: float

    def save_grid(self, path: str | Path) -> None:
        """Plain-text header (width height lat lon cell_m), then f32 scores."""
        rows, cols = self.scores.shape
        header = f"{cols} {rows} {self.origin.lat!r} {self.origin.lon!r} {self.cell_m!r}\n"
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(np.ascontiguousarray(self.scores, dtype="<f4").tobytes())

    def save_pgm(self, path: str | Path) -> None:
        """8-bit portable graymap; scores mapped [-1, 1] -> [0, 255]."""
        rows, cols = self.scores.shape
        gray = np.clip((self.scores + 1.0) * 127.5, 0, 255).astype(np.uint8)
        with open(path, "wb") as fh:
            fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
            fh.write(gray.tobytes())
