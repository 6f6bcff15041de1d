"""One closed-loop repetition of the graft CLI pipeline, gated operation by operation.

A repetition runs `synth -> build -> train -> eval classify/retrieve/segment ->
map` in-process through `graft.cli.main`, each command starting after the
previous one returned. Every command and every output check is one operation
in a `Ledger`: a failure is counted there and never propagates, so a broken
program yields `correct: false` rather than a crashed benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from graft import cli

MAP_QUERY = "water"

# Commands in run order, grouped into the stages that the end-to-end
# metrics time.
STAGES = (
    ("setup", ("synth", "build")),
    ("train", ("train",)),
    ("eval", ("classify", "retrieve", "segment")),
    ("map", ("map",)),
)
COMMANDS = tuple(op for _, ops in STAGES for op in ops)
CHECKS = ("history", "quality", "retrieval_output", "density_output")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_tile_epochs_per_s": "1/s",
    "eval_tiles_per_s": "1/s",
    "map_cells_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """Pipeline settings of one benchmark workload.

    `overrides` are `--set key=value` pairs given to every command; `floors`
    are the lowest quality-guard values accepted as correct.
    """

    name: str
    overrides: tuple[str, ...]
    loss: str
    epochs: int
    floors: dict = field(default_factory=dict)


# Why each workload exists, and the layer it loads, is in bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse_image",
            ("world.extent_km=30", "world.n_ground=3200", "map.cell_px=896"),
            loss="image", epochs=3,
            floors={"classify_acc": 0.9, "retrieve_map20": 0.6, "segment_mean_acc": 0.85},
        ),
        Workload(
            "dense_pixel",
            ("world.extent_km=3", "world.n_ground=6000", "map.cell_px=56"),
            loss="pixel", epochs=10,
            floors={"classify_acc": 0.4, "retrieve_map20": 0.3, "segment_mean_acc": 0.4},
        ),
        # One epoch leaves quality near chance and seed-dependent, so map_fine
        # has no quality floor; its outputs are still checked for form.
        Workload("map_fine", ("map.cell_px=112",), loss="image", epochs=1),
    )
}


class CheckError(Exception):
    """An operation finished but its output is wrong."""


class Ledger:
    """Counts operations attempted and failed; a failure is logged, not raised."""

    def __init__(self, log=None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._log = log if log is not None else sys.stderr

    def op(self, name: str, fn: Callable, *args):
        """Run one operation; return (ok, value)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # the boundary that must keep running
            self.failed += 1
            self.failures.append(f"{name}: {exc}")
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=self._log)
            return False, None

    def skip(self, names) -> None:
        """Operations that cannot run because one they depend on failed."""
        names = list(names)
        self.attempted += len(names)
        self.failed += len(names)
        self.failures.extend(f"{n}: skipped after an earlier failure" for n in names)


@dataclass
class RepResult:
    """Wall times, sizes and outputs of one successful repetition."""

    op_s: dict[str, float]
    pipeline_s: float
    n_tiles: int
    n_cells: int
    epochs: int
    quality: dict[str, float]
    digests: dict[str, str]
    dataset_bytes: int

    def stage_s(self, stage: str) -> float:
        return sum(self.op_s[op] for op in dict(STAGES)[stage])

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.stage_s("setup"),
            "train_tile_epochs_per_s": self.n_tiles * self.epochs / self.stage_s("train"),
            "eval_tiles_per_s": 3 * self.n_tiles / self.stage_s("eval"),
            "map_cells_per_s": self.n_cells / self.stage_s("map"),
            "pipeline_s": self.pipeline_s,
        }


def argv_for(wl: Workload, seed: int, repdir: Path) -> dict[str, list[str]]:
    """The CLI argument list of every command of one repetition."""
    world, data, run = repdir / "world", repdir / "data", repdir / "run"
    common = ["--seed", str(seed)]
    for kv in wl.overrides:
        common += ["--set", kv]
    inputs = ["--world", str(world), "--dataset", str(data / "dataset.grft")]
    ckpt = ["--checkpoint", str(run / "checkpoint.grcp")]
    evals = {
        task: ["eval", task, *inputs, *ckpt, "--out", str(repdir / "eval"), *common]
        for task in ("classify", "retrieve", "segment")
    }
    return {
        "synth": ["synth", "--out", str(world), *common],
        "build": ["build", "--world", str(world), "--out", str(data), *common],
        "train": ["train", *inputs, "--out", str(run), "--loss", wl.loss,
                  "--epochs", str(wl.epochs), *common],
        **evals,
        "map": ["map", MAP_QUERY, "--world", str(world), *ckpt,
                "--out", str(repdir / "maps"), *common],
    }


def run_command(argv: list[str]) -> str:
    """One `graft` command in-process; returns its stdout, raises on a non-zero exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)  # looked up at call time so a tracer can wrap it
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    if rc != 0:
        raise CheckError(f"`graft {' '.join(argv[:2])}` exited with {rc}:\n{out.getvalue()}")
    return out.getvalue()


def run_rep(
    wl: Workload,
    seed: int,
    repdir: Path,
    ledger: Ledger,
    span: Callable[[str], contextlib.AbstractContextManager] = lambda name: contextlib.nullcontext(),
    reference: Optional[dict[str, str]] = None,
) -> Optional[RepResult]:
    """Run and check one repetition; None if any command failed.

    `span(name)` brackets the whole pipeline ("pipeline") and each stage;
    `reference` holds the container and checkpoint digests of an earlier
    repetition of the same seed, which this one must reproduce byte for byte.
    """
    argvs = argv_for(wl, seed, repdir)
    op_s: dict[str, float] = {}
    with span("pipeline"):
        t_start = time.perf_counter()
        for stage, ops in STAGES:
            with span(stage):
                for op in ops:
                    t0 = time.perf_counter()
                    ok, _ = ledger.op(op, run_command, argvs[op])
                    op_s[op] = time.perf_counter() - t0
                    if not ok:
                        break
            if not ok:
                ledger.skip(list(COMMANDS[COMMANDS.index(op) + 1:]) + list(CHECKS)
                            + (["determinism"] if reference else []))
                return None
        pipeline_s = time.perf_counter() - t_start

    ok_h, _ = ledger.op("history", check_history, repdir / "run" / "history.txt", wl.epochs)
    ok_q, quality = ledger.op("quality", read_quality, repdir / "eval", wl.floors)
    ok_r, n_tiles = ledger.op("retrieval_output", check_retrieval, repdir / "eval")
    ok_d, n_cells = ledger.op("density_output", check_density, repdir / "maps")
    digests = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in (("dataset", repdir / "data" / "dataset.grft"),
                           ("checkpoint", repdir / "run" / "checkpoint.grcp"))
    }
    ok_det = True
    if reference is not None:
        ok_det, _ = ledger.op("determinism", check_same_digests, digests, reference)
    if not (ok_h and ok_q and ok_r and ok_d and ok_det):
        return None
    return RepResult(
        op_s=op_s, pipeline_s=pipeline_s, n_tiles=n_tiles, n_cells=n_cells,
        epochs=wl.epochs, quality=quality, digests=digests,
        dataset_bytes=(repdir / "data" / "dataset.grft").stat().st_size,
    )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_history(path: Path, epochs: int) -> None:
    """One finite loss per epoch; with two or more epochs the last is below the first."""
    losses = [float(line.split()[1]) for line in path.read_text().splitlines()]
    _require(len(losses) == epochs, f"{len(losses)} history lines for {epochs} epochs")
    _require(all(math.isfinite(v) for v in losses), f"non-finite loss in {losses}")
    if epochs >= 2:
        _require(losses[-1] < losses[0], f"loss did not fall: {losses[0]} -> {losses[-1]}")


def _metric_lines(path: Path) -> dict[str, list[str]]:
    return {line.split()[0]: line.split()[1:] for line in path.read_text().splitlines()}


def read_quality(evaldir: Path, floors: dict[str, float]) -> dict[str, float]:
    """Quality-guard values from the eval metrics files, checked against floors."""
    quality = {
        "classify_acc": float(_metric_lines(evaldir / "classify_metrics.txt")["accuracy"][0]),
        "retrieve_map20": float(_metric_lines(evaldir / "retrieval_metrics.txt")["mean"][1]),
        "segment_mean_acc": float(_metric_lines(evaldir / "segment_metrics.txt")["mean"][0]),
    }
    for name, value in quality.items():
        _require(0.0 <= value <= 1.0, f"{name} = {value} outside [0, 1]")
        floor = floors.get(name, 0.0)
        _require(value >= floor, f"{name} = {value} below floor {floor}")
    return quality


def check_retrieval(evaldir: Path) -> int:
    """Every query ranks every evaluated tile once, by non-increasing score.

    Returns the number of tiles evaluated.
    """
    tile_ids = [line.split()[0] for line in
                (evaldir / "classify_results.txt").read_text().splitlines()]
    _require(len(tile_ids) > 0 and len(set(tile_ids)) == len(tile_ids),
             "classify results list no tiles or repeat one")
    lines = (evaldir / "retrieval_results.txt").read_text().splitlines()
    _require(len(lines) >= 2, f"{len(lines)} retrieval queries")
    for line in lines:
        query, ids, scores = line.split("\t")
        ids, scores = ids.split(","), [float(s) for s in scores.split(",")]
        _require(sorted(ids) == sorted(tile_ids), f"query {query}: ranking is not a permutation")
        _require(len(scores) == len(ids), f"query {query}: {len(scores)} scores, {len(ids)} ids")
        _require(all(math.isfinite(s) and abs(s) <= 1.0 + 1e-6 for s in scores),
                 f"query {query}: score outside [-1, 1]")
        _require(all(a >= b for a, b in zip(scores, scores[1:])),
                 f"query {query}: scores not sorted")
    return len(tile_ids)


def check_density(mapdir: Path) -> int:
    """The density grid and its PGM agree in shape and hold finite cosines.

    Returns the number of map cells.
    """
    safe = MAP_QUERY.replace(" ", "_")
    raw = (mapdir / f"density_{safe}.grid").read_bytes()
    nl = raw.index(b"\n")
    cols_s, rows_s, *_ = raw[:nl].decode("ascii").split()
    cols, rows = int(cols_s), int(rows_s)
    _require(cols > 0 and rows > 0, f"empty {rows}x{cols} grid")
    _require(len(raw) - nl - 1 == 4 * rows * cols, "grid payload size mismatch")
    scores = np.frombuffer(raw, dtype="<f4", offset=nl + 1)
    _require(bool(np.all(np.isfinite(scores))) and float(np.max(np.abs(scores))) <= 1.0 + 1e-5,
             "grid scores not finite cosines")
    pgm = (mapdir / f"density_{safe}.pgm").read_bytes()
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    _require(pgm.startswith(header) and len(pgm) == len(header) + rows * cols,
             "pgm header or size mismatch")
    return rows * cols


def check_same_digests(digests: dict[str, str], reference: dict[str, str]) -> None:
    for name, digest in digests.items():
        _require(digest == reference[name],
                 f"{name} digest {digest[:12]} differs from first run {reference[name][:12]}")
