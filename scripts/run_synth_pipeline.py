#!/usr/bin/env python3
"""End-to-end demo: synthesize a world, pair it, train, evaluate, map.

Drives the `graft` CLI exactly as a user would. The evaluation stages score a
held-out world: the world at seed + 1, synthesized and built with the same
settings. Outputs land under --out (default: runs/pipeline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graft.cli import main as graft  # noqa: E402


def run(argv: list[str]) -> None:
    rc = graft(argv)
    if rc != 0:
        raise SystemExit(f"`graft {' '.join(argv)}` exited with {rc}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/pipeline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-ground", type=int, default=1200)
    parser.add_argument("--extent-km", type=float, default=18.0)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--loss", default="image", choices=["image", "pixel", "sum_prob",
                                                            "avg_rep", "l2"])
    args = parser.parse_args()

    out = Path(args.out)
    world_dir, holdout_dir = out / "world", out / "holdout_world"
    world_args = [
        "--set", f"world.n_ground={args.n_ground}",
        "--set", f"world.extent_km={args.extent_km}",
    ]
    for world, data, seed in ((world_dir, out / "data", args.seed),
                              (holdout_dir, out / "holdout_data", args.seed + 1)):
        run(["synth", "--out", str(world), *world_args, "--seed", str(seed)])
        run(["build", "--world", str(world), "--out", str(data), *world_args,
             "--seed", str(seed)])

    run([
        "train", "--world", str(world_dir), "--dataset", str(out / "data" / "dataset.grft"),
        "--out", str(out / "run"), "--loss", args.loss, "--epochs", str(args.epochs),
        "--seed", str(args.seed),
    ])
    ckpt = str(out / "run" / "checkpoint.grcp")

    # segmentation wants the pixel-level head; train it separately unless the
    # main checkpoint already used it
    seg_ckpt = ckpt
    if args.loss != "pixel":
        run([
            "train", "--world", str(world_dir),
            "--dataset", str(out / "data" / "dataset.grft"),
            "--out", str(out / "run_pixel"), "--loss", "pixel",
            "--epochs", str(args.epochs), "--seed", str(args.seed),
        ])
        seg_ckpt = str(out / "run_pixel" / "checkpoint.grcp")

    for task, task_ckpt in (("classify", ckpt), ("retrieve", ckpt),
                            ("segment", seg_ckpt)):
        run([
            "eval", task, "--world", str(holdout_dir),
            "--dataset", str(out / "holdout_data" / "dataset.grft"),
            "--checkpoint", task_ckpt, "--out", str(out / "eval"),
        ])
    run(["map", "water", "--world", str(world_dir), "--checkpoint", ckpt,
         "--out", str(out / "maps"), *world_args, "--seed", str(args.seed)])
    print(f"\nall outputs under {out}/")


if __name__ == "__main__":
    main()
