#!/usr/bin/env python3
"""Loss-formulation ablation on synthetic worlds, run through the `graft` CLI.

For each seed, `graft synth` and `graft build` write a world and its dataset
container; the world at seed + 1, built with the same settings, is held out.
Every loss variant trains on the first container under an identical budget
(`graft train`) and is scored zero-shot on the held-out one (`graft eval
classify`, `retrieve` and `segment`). The table reports accuracy, retrieval
mAP@20 and patch segmentation accuracy per variant, read from the metrics
files and averaged over seeds.

A desk-scale caveat worth knowing before reading the numbers: on gaussian
Voronoi worlds the pure-attraction (l2) variant is a strong baseline - its
optimum is the posterior-mean embedding, which ranks well against the fixed
class anchors - so the large-scale advantage of the temperature-sharpened
contrastive variants does not reproduce here (see "Known desk-scale result"
in the repository's README).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graft import cli  # noqa: E402
from graft.losses import VARIANTS  # noqa: E402


def graft(*argv) -> None:
    """Run one `graft` command quietly; a failure ends the script with its exit code."""
    argv = list(map(str, argv))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"`graft {' '.join(argv)}` exited with {rc}")


def metrics(path: Path) -> dict[str, list[str]]:
    """The lines of an eval metrics file, keyed by their first field."""
    return {name: values for name, *values in map(str.split, path.read_text().splitlines())}


def build_world(root: Path, seed: int, world_args: list[str]) -> tuple[Path, Path]:
    """`graft synth` and `graft build` at `seed`: the world and its container."""
    world, data = root / f"world{seed}", root / f"data{seed}"
    graft("synth", "--out", world, "--seed", seed, *world_args)
    graft("build", "--world", world, "--out", data, "--seed", seed, *world_args)
    return world, data / "dataset.grft"


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
    world_args = ["--set", f"world.n_ground={args.n_ground}",
                  "--set", f"world.extent_km={args.extent_km}",
                  "--set", f"world.noise_sigma={args.noise}"]

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        worlds = {seed: build_world(root, seed, world_args)
                  for seed in sorted({*args.seeds, *(s + 1 for s in args.seeds)})}
        for variant in VARIANTS:
            accs, maps, segs = [], [], []
            t0 = time.monotonic()
            for seed in args.seeds:
                (world, dataset), (held_world, held_dataset) = worlds[seed], worlds[seed + 1]
                run = root / f"{variant}{seed}"
                graft("train", "--world", world, "--dataset", dataset, "--out", run,
                      "--seed", seed, "--epochs", args.epochs,
                      "--set", f"loss.variant={variant}", "--set", f"train.peak_lr={args.peak_lr}")
                for task in ("classify", "retrieve", "segment"):
                    graft("eval", task, "--world", held_world, "--dataset", held_dataset,
                          "--checkpoint", run / "checkpoint.grcp", "--out", run)
                accs.append(float(metrics(run / "classify_metrics.txt")["accuracy"][0]))
                maps.append(float(metrics(run / "retrieval_metrics.txt")["mean"][1]))
                segs.append(float(metrics(run / "segment_metrics.txt")["mean"][0]))
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
