#!/usr/bin/env python3
"""Fresh-process peak memory of build, train and eval at two world sizes.

Runs `graft synth`, `build`, a 1-epoch `train`, `eval classify` and
`eval segment`, each in a new process, on the sparse_image bench world
(30 km, 3200 grounds) and on one with twice its area and grounds. Prints
each command's peak RSS (`ru_maxrss`) at both sizes and both container
sizes, and exits 1 if any command's peak grows by more than a quarter of the
container's growth: a command that held every tile's features would grow by
about as much as the container.

    python3 scripts/peak_memory.py --out runs/peak_memory
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MB = 1 << 20
# the `--set` overrides of the two worlds: sparse_image's, then twice its area and grounds
SIZES = (("world.extent_km=30", "world.n_ground=3200"),
         (f"world.extent_km={30 * math.sqrt(2):.4f}", "world.n_ground=6400"))
MEASURED = ("build", "train", "classify", "segment")
GROWTH_BOUND = 0.25


def run(argv: list[str], log: Path) -> float:
    """`graft argv` in a new process, stdout to `log`; returns its peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    with open(log, "wb") as fh:
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "graft.cli", *argv], env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"`graft {' '.join(argv)}` exited with "
                         f"{os.waitstatus_to_exitcode(status)}; stdout in {log}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def measure(root: Path, overrides: tuple[str, ...]) -> tuple[dict[str, float], int]:
    """Each measured command's peak RSS in MB, and the container's size in bytes."""
    common = ["--seed", "0"] + [a for kv in overrides for a in ("--set", kv)]
    world, data, run_dir = root / "world", root / "data", root / "run"
    inputs = ["--world", str(world), "--dataset", str(data / "dataset.grft")]
    ckpt = ["--checkpoint", str(run_dir / "checkpoint.grcp")]
    argvs = {
        "synth": ["synth", "--out", str(world)],
        "build": ["build", "--world", str(world), "--out", str(data)],
        "train": ["train", *inputs, "--out", str(run_dir), "--epochs", "1"],
        **{task: ["eval", task, *inputs, *ckpt, "--out", str(root / "eval")]
           for task in ("classify", "segment")},
    }
    root.mkdir(parents=True, exist_ok=True)
    peaks = {name: run(argv + common, root / f"{name}.stdout") for name, argv in argvs.items()}
    return {name: peaks[name] for name in MEASURED}, (data / "dataset.grft").stat().st_size


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="runs/peak_memory", help="work directory (replaced)")
    args = parser.parse_args()
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    (small, small_bytes), (large, large_bytes) = (
        measure(out / f"size{i}", overrides) for i, overrides in enumerate(SIZES))
    growth = (large_bytes - small_bytes) / MB
    print(f"container: {small_bytes / MB:.1f} MB -> {large_bytes / MB:.1f} MB "
          f"(+{growth:.1f} MB)")
    failed = []
    for name in MEASURED:
        grew = large[name] - small[name]
        print(f"{name:9s} peak RSS {small[name]:7.1f} MB -> {large[name]:7.1f} MB "
              f"(+{grew:.1f} MB, {grew / growth:.2f} of the container's growth)")
        if grew > GROWTH_BOUND * growth:
            failed.append(name)
    if failed:
        raise SystemExit(f"peak RSS of {', '.join(failed)} grows by more than "
                         f"{GROWTH_BOUND} of the container's growth")


if __name__ == "__main__":
    main()
