#!/usr/bin/env python3
"""Loss-formulation ablation on a synthetic world.

Trains every loss variant under an identical budget and reports held-out
zero-shot accuracy, retrieval mAP@20 and patch segmentation accuracy per
variant, averaged over seeds.

A desk-scale caveat worth knowing before reading the numbers: on gaussian
Voronoi worlds the pure-attraction (l2) variant is a strong baseline - its
optimum is the posterior-mean embedding, which ranks well against the fixed
class anchors - so the large-scale advantage of the temperature-sharpened
contrastive variants does not reproduce here (see the decisions notes in the
repository root README).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graft import corpus, evaluation, geo  # noqa: E402
from graft.encoder import embed_images, forward_patch_rows  # noqa: E402
from graft.frozen import PromptSet, embed_text  # noqa: E402
from graft.losses import VARIANTS, LossConfig  # noqa: E402
from graft.train import TrainSchedule, train  # noqa: E402


def build(seed: int, noise: float, n_ground: int, extent_km: float):
    cfg = corpus.SynthWorldConfig(extent_km=extent_km, n_ground=n_ground,
                                  noise_sigma=noise)
    world = corpus.synth_world(cfg, seed=seed)
    spec = geo.TileSpec(geo.GeoPoint(cfg.center_lat, cfg.center_lon))
    ds = corpus.build_pairs(
        world.grounds, world.snapshots, spec, seed=seed,
        fields={"field.json": world.field}, embeddings=world.ground_encoder,
    )
    order = np.random.default_rng(seed + 777).permutation(len(ds.tiles))
    n_eval = max(100, len(ds.tiles) // 5)
    return (
        world,
        corpus.subset_tiles(ds, order[: len(ds.tiles) - n_eval]),
        corpus.subset_tiles(ds, order[len(ds.tiles) - n_eval :]),
    )


def evaluate(world, params, ds_eval):
    prompts = PromptSet()
    class_embs = np.stack(
        [embed_text(world.text_encoder, n, prompts) for n in world.class_names]
    )
    features = [tile.patch_features for tile in ds_eval.tiles]
    embs = embed_images(params, features)
    patch_embs, _ = forward_patch_rows(
        params, np.concatenate([f.reshape(-1, f.shape[-1]) for f in features])
    )
    seg_pred, _ = evaluation.segment_patches(patch_embs, class_embs)
    seg_gt = [world.field.class_grid(tile.spec).ravel() for tile in ds_eval.tiles]
    gts = np.array([np.bincount(grid).argmax() for grid in seg_gt])
    acc = float(np.mean(np.argmax(embs @ class_embs.T, axis=1) == gts))
    ids = [t.id for t in ds_eval.tiles]
    gt_of = dict(zip(ids, gts))
    aps = []
    for c in range(class_embs.shape[0]):
        ranked = evaluation.retrieve(class_embs[c], ids, embs, query_id=str(c))
        flags = [1 if gt_of[i] == c else 0 for i in ranked.item_ids]
        aps.append(evaluation.average_precision_at_k(flags, 20))
    _, seg_acc = evaluation.per_class_accuracy(
        seg_pred[None, :], np.concatenate(seg_gt)[None, :]
    )
    return acc, float(np.mean(aps)), seg_acc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--n-ground", type=int, default=1600)
    parser.add_argument("--extent-km", type=float, default=20.0)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--peak-lr", type=float, default=1e-3)
    parser.add_argument("--out", default="runs/ablation.tsv")
    args = parser.parse_args()

    rows = []
    setups = {seed: build(seed, args.noise, args.n_ground, args.extent_km)
              for seed in args.seeds}
    for variant in VARIANTS:
        accs, maps, segs = [], [], []
        t0 = time.monotonic()
        for seed in args.seeds:
            world, ds_train, ds_eval = setups[seed]
            result = train(
                ds_train, world.ground_encoder, LossConfig(variant=variant),
                TrainSchedule(peak_lr=args.peak_lr, epochs=args.epochs, seed=seed),
            )
            acc, map20, seg = evaluate(world, result.params, ds_eval)
            accs.append(acc)
            maps.append(map20)
            segs.append(seg)
        rows.append((variant, np.mean(accs), np.mean(maps), np.mean(segs),
                     time.monotonic() - t0))
        print(f"{variant:14s} acc={rows[-1][1]:.4f} mAP@20={rows[-1][2]:.4f} "
              f"seg={rows[-1][3]:.4f} ({rows[-1][4]:.0f}s)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("variant\taccuracy\tmap20\tseg_accuracy\tseconds\n")
        for row in rows:
            fh.write(f"{row[0]}\t{row[1]:.6f}\t{row[2]:.6f}\t{row[3]:.6f}\t{row[4]:.1f}\n")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
