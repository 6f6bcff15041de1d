#!/usr/bin/env python3
"""Data-budget scaling, run through the `graft` CLI: train on worlds holding
growing fractions of `--n-ground` ground images in one extent and track
zero-shot accuracy on a held-out world.

For each seed, a budget's world is `graft synth` at that seed with the
fraction's share of the grounds: the same land-cover field, fewer paired
tiles. It is built and trained with the default loss, then scored by `graft
eval classify` on the full world at seed + 1; the accuracy is read from the
metrics file. With a fixed epoch count, larger budgets also mean more
optimization steps, so the curve reflects the full effect of collecting more
pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graft import cli  # noqa: E402


def graft(*argv) -> None:
    """Run one `graft` command quietly; a failure ends the script with its exit code."""
    argv = list(map(str, argv))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"`graft {' '.join(argv)}` exited with {rc}")


def build_world(root: Path, seed: int, n_ground: int, extent_km: float) -> tuple[Path, Path]:
    """`graft synth` and `graft build` at `seed`: the world and its container."""
    world, data = root / f"world{seed}_{n_ground}", root / f"data{seed}_{n_ground}"
    world_args = ["--seed", seed, "--set", f"world.n_ground={n_ground}",
                  "--set", f"world.extent_km={extent_km}"]
    graft("synth", "--out", world, *world_args)
    graft("build", "--world", world, "--out", data, *world_args)
    return world, data / "dataset.grft"


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
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in args.seeds:
            held_world, held_dataset = build_world(root, seed + 1, args.n_ground, args.extent_km)
            for frac in args.fractions:
                n_ground = int(args.n_ground * frac)
                world, dataset = build_world(root, seed, n_ground, args.extent_km)
                run = root / f"run{seed}_{n_ground}"
                graft("train", "--world", world, "--dataset", dataset, "--out", run,
                      "--seed", seed, "--epochs", args.epochs)
                graft("eval", "classify", "--world", held_world, "--dataset", held_dataset,
                      "--checkpoint", run / "checkpoint.grcp", "--out", run)
                lines = dict(line.split() for line in
                             (run / "classify_metrics.txt").read_text().splitlines())
                acc = float(lines["accuracy"])
                accs[frac].append(acc)
                print(f"seed {seed} budget {frac:>5.0%}: {n_ground:5d} grounds "
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
