#!/usr/bin/env python3
"""Data-budget scaling: train on growing fractions of one paired dataset and
track held-out zero-shot accuracy. With a fixed epoch count, larger budgets
also mean more optimization steps, so the curve reflects the full effect of
collecting more pairs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graft import corpus, geo  # noqa: E402
from graft.encoder import embed_images  # noqa: E402
from graft.frozen import PromptSet, embed_text  # noqa: E402
from graft.losses import LossConfig  # noqa: E402
from graft.train import TrainSchedule, train  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--fractions", type=float, nargs="+",
                        default=[0.1, 0.25, 0.5, 1.0])
    parser.add_argument("--n-ground", type=int, default=2400)
    parser.add_argument("--extent-km", type=float, default=24.0)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--out", default="runs/scaling.tsv")
    args = parser.parse_args()

    accs = {frac: [] for frac in args.fractions}
    for seed in args.seeds:
        cfg = corpus.SynthWorldConfig(extent_km=args.extent_km, n_ground=args.n_ground)
        world = corpus.synth_world(cfg, seed=seed)
        spec = geo.TileSpec(geo.GeoPoint(cfg.center_lat, cfg.center_lon))
        ds = corpus.build_pairs(
            world.grounds, world.snapshots, spec, seed=seed,
            fields={"field.json": world.field}, embeddings=world.ground_encoder,
        )
        order = np.random.default_rng(seed + 777).permutation(len(ds.tiles))
        n_eval = max(100, len(ds.tiles) // 5)
        ds_train = corpus.subset_tiles(ds, order[: len(ds.tiles) - n_eval])
        ds_eval = corpus.subset_tiles(ds, order[len(ds.tiles) - n_eval :])

        prompts = PromptSet()
        class_embs = np.stack(
            [embed_text(world.text_encoder, n, prompts) for n in world.class_names]
        )
        gts = np.array(
            [np.bincount(world.field.class_grid(t.spec).ravel()).argmax()
             for t in ds_eval.tiles]
        )
        for frac in args.fractions:
            sub = corpus.subset_tiles(ds_train, range(int(len(ds_train.tiles) * frac)))
            result = train(sub, world.ground_encoder, LossConfig(),
                           TrainSchedule(epochs=args.epochs, seed=seed))
            embs = embed_images(result.params, [t.patch_features for t in ds_eval.tiles])
            preds = np.argmax(embs @ class_embs.T, axis=1)
            acc = float(np.mean(preds == gts))
            accs[frac].append(acc)
            print(f"seed {seed} budget {frac:>5.0%}: {len(sub.tiles):4d} tiles "
                  f"-> accuracy {acc:.4f}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("fraction\tmean_accuracy\t" +
                 "\t".join(f"seed{s}" for s in args.seeds) + "\n")
        for frac in args.fractions:
            vals = accs[frac]
            fh.write(f"{frac}\t{np.mean(vals):.6f}\t"
                     + "\t".join(f"{v:.6f}" for v in vals) + "\n")
    print("\nmean accuracy by budget:")
    for frac in args.fractions:
        print(f"  {frac:>5.0%}: {np.mean(accs[frac]):.4f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
