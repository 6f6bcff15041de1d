"""Command-line pipeline: synth -> build -> train -> eval/map.

Every command takes `--config PATH` (key-value file), `--seed`, `--out DIR`
and repeatable `--set key=value` overrides (flags win over the file). Each
run writes a resolved-config snapshot next to its outputs, and identical
(config, seed) runs produce byte-identical primary outputs. The `GRAFT_LOG`
environment variable sets log verbosity (debug/info/warning).

Exit codes by failure class: 2 config, 3 I/O, 4 manifest/referential
integrity or a corrupt container, fixture or world.json, 5 training
divergence, 6 checkpoint/world mismatch, a corrupt checkpoint, a checkpoint
whose encoder output collapses to zero norm, or missing fixture entries.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import corpus, evaluation, geo
from .config import ConfigError, RunConfig
from .corpus import (
    DatasetFormatError,
    EmptyDatasetError,
    IntegrityError,
    LoadedWorld,
    ManifestError,
)
from .encoder import DegenerateOutputError, SatEncoderParams, embed_images
from .frozen import MissingEmbeddingError, embed_text
from .train import DivergenceError, load_checkpoint, save_checkpoint, train

log = logging.getLogger("graft")


class MismatchError(RuntimeError):
    """Checkpoint, dataset and world fixtures do not belong together."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graft",
        description="Ground-remote alignment pipeline on synthetic geospatial worlds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", default="graft_out", help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override any config key")

    p = sub.add_parser("synth", help="generate a synthetic world (manifests + fixtures)")
    common(p)

    p = sub.add_parser("build", help="pair ground images with satellite tiles")
    common(p)
    p.add_argument("--world", required=True, help="directory written by `graft synth`")

    p = sub.add_parser("train", help="train the satellite encoder")
    common(p)
    p.add_argument("--world", required=True)
    p.add_argument("--dataset", required=True, help="dataset container from `graft build`")
    p.add_argument("--loss", choices=list(_LOSS_FLAG),
                   help="loss variant (shorthand for --set loss.variant=...)")
    p.add_argument("--epochs", type=int, help="shorthand for --set train.epochs=...")

    p = sub.add_parser("eval", help="zero-shot evaluation of a checkpoint")
    common(p)
    p.add_argument("task", choices=["classify", "retrieve", "segment"])
    p.add_argument("--world", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("map", help="density map for an open-world query label")
    common(p)
    p.add_argument("query", help="class label to map")
    p.add_argument("--world", required=True)
    p.add_argument("--checkpoint", required=True)

    return parser


_LOSS_FLAG = {
    "image": "image_default",
    "pixel": "pixel_default",
    "sum_prob": "sum_prob",
    "avg_rep": "avg_rep",
    "l2": "l2",
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg.apply_overrides(args.overrides)
    if args.seed is not None:
        cfg.set_key("seed", str(args.seed))
    if getattr(args, "loss", None):
        cfg.set_key("loss.variant", _LOSS_FLAG[args.loss])
    if getattr(args, "epochs", None) is not None:
        cfg.set_key("train.epochs", str(args.epochs))
    cfg.check()
    return cfg


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_world(args: argparse.Namespace) -> LoadedWorld:
    return corpus.load_world_dir(args.world)


def _check_compatible(params: SatEncoderParams, world: LoadedWorld,
                      feature_dim: int, n_patches: int) -> None:
    """Checkpoint dimensions against the text fixture it is scored with and the
    feature dimension and patch count of the tiles it embeds."""
    if params.embed_dim != world.text_encoder.dim:
        raise MismatchError(
            f"checkpoint embeds into {params.embed_dim} dims but the world's text fixture "
            f"has {world.text_encoder.dim}"
        )
    if params.feature_dim != feature_dim:
        raise MismatchError(
            f"checkpoint expects {params.feature_dim}-dim features but the tiles carry "
            f"{feature_dim}"
        )
    if params.n_patches != n_patches:
        raise MismatchError(
            f"checkpoint pools {params.n_patches} patches but tiles have {n_patches}"
        )


def _load_checkpoint_or_mismatch(path: str) -> tuple[SatEncoderParams, dict]:
    if not Path(path).exists():
        raise MismatchError(f"checkpoint {path} does not exist")
    try:
        return load_checkpoint(path)
    except ValueError as exc:
        raise MismatchError(f"cannot read {exc}") from exc


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _outdir(args)
    world = corpus.synth_world(cfg.world_config(), seed=cfg["seed"])
    paths = world.write(out)
    cfg.write_snapshot(out)
    print(f"world written to {out}")
    print(f"  classes (K={cfg['world.classes']}): {', '.join(world.class_names)}")
    print(f"  ground images: {len(world.grounds)}  snapshots: {len(world.snapshots)}")
    print(f"  seed: {cfg['seed']}")
    log.info("world files: %s", {k: str(p) for k, p in paths.items()})
    return 0


def _min_center_separation_m(lat: np.ndarray, lon: np.ndarray) -> float:
    """Smallest distance between two tile centers, by a sweep in latitude order.

    Round k pairs each tile with its k-th neighbor to the north. A tile's
    distance to that neighbor is at least their north offset, which only grows
    with k, so a tile leaves the sweep once that offset reaches the best
    distance so far.
    """
    order = np.argsort(lat, kind="stable")
    lats, lons = lat[order], lon[order]
    best = math.inf
    south = np.arange(len(lats))
    for k in range(1, len(lats)):
        south = south[south + k < len(lats)]
        dn = (lats[south + k] - lats[south]) * geo.METERS_PER_DEGREE
        south = south[dn < best]
        if not len(south):
            break
        d2 = geo.separation_m2(lats[south + k], lons[south + k], lats[south], lons[south])
        best = min(best, float(np.sqrt(d2.min())))
    return best


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _outdir(args)
    world = _load_world(args)
    spec = cfg.tile_spec()
    ds = corpus.build_pairs(
        world.grounds,
        world.snapshots,
        spec,
        cap=cfg["pair.cap"],
        min_sep_px=cfg["pair.min_sep_px"],
        seed=cfg["seed"],
        fields=corpus.resolve_fields(world.snapshots, args.world),
        embeddings=world.ground_encoder,
    )
    ds.pair_index()
    dataset_path = out / "dataset.grft"
    corpus.save_dataset(ds, dataset_path)
    cfg.write_snapshot(out)

    print(f"dataset written to {dataset_path}")
    print(f"  tiles: {len(ds.tiles)}  pairs: {ds.n_pairs}  "
          f"max grounds/tile: {np.diff(ds.offsets).max()}")
    required = cfg["pair.min_sep_px"] * spec.resolution_m_per_px
    if len(ds.tiles) > 1:
        min_sep = _min_center_separation_m(ds.tiles.lat, ds.tiles.lon)
        status = "ok" if min_sep >= required else "VIOLATED"
        print(f"  min center separation: {min_sep:.1f} m (required >= {required:.1f} m) {status}")
    return 0


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    loss_cfg, sched = cfg.loss_config(), cfg.schedule()
    out = _outdir(args)
    world = _load_world(args)
    ds = corpus.load_dataset(args.dataset)
    result = train(
        ds,
        world.ground_encoder,
        loss_cfg,
        sched,
        batch_size=cfg["train.batch_size"],
        hidden_dim=cfg["train.hidden_dim"],
    )
    ckpt_path = out / "checkpoint.grcp"
    save_checkpoint(ckpt_path, result.params, result.provenance)
    history_path = out / "history.txt"
    history_path.write_text(
        "".join(f"{epoch} {loss!r}\n" for epoch, loss in enumerate(result.epoch_mean_loss))
    )
    cfg.write_snapshot(out)
    print(f"checkpoint written to {ckpt_path}")
    print(f"  loss variant: {cfg['loss.variant']}  epochs: {cfg['train.epochs']}  "
          f"seed: {cfg['seed']}")
    if result.epoch_mean_loss:
        print(f"  epoch mean loss: {result.epoch_mean_loss[0]:.6f} -> {result.epoch_mean_loss[-1]:.6f}")
    else:
        print("  epoch mean loss: (no epochs run)")
    return 0


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _outdir(args)
    world = _load_world(args)
    tiles = corpus.load_tiles(args.dataset)
    if not tiles:
        raise EmptyDatasetError(f"dataset {args.dataset} holds no tiles")
    params, _ = _load_checkpoint_or_mismatch(args.checkpoint)
    _check_compatible(params, world, tiles.features.shape[-1], tiles.spec.grid_px ** 2)
    class_embs = evaluation.class_embeddings(world.text_encoder, world.class_names,
                                             cfg.prompt_set())
    gt_grids = corpus.class_grids(world.field, tiles.spec, tiles.lat, tiles.lon)
    gts = evaluation.majority_labels(gt_grids, len(world.class_names))
    cfg.write_snapshot(out)

    if args.task == "classify":
        preds, scores = evaluation.classify(embed_images(params, tiles.features), class_embs)
        accuracy = float(np.mean(preds == gts))
        onehot = np.zeros_like(scores)
        onehot[np.arange(len(gts)), gts] = 1.0
        mean_ap = evaluation.multilabel_map(scores, onehot)
        (out / "classify_results.txt").write_text(
            "".join(f"{t} {p} {g}\n" for t, p, g in zip(tiles.ids, preds, gts))
        )
        (out / "classify_metrics.txt").write_text(
            f"n_items {len(tiles)}\naccuracy {accuracy!r}\nmultilabel_map {mean_ap!r}\n"
        )
        print(f"classify: accuracy={accuracy:.4f} multilabel_map={mean_ap:.4f} "
              f"on {len(tiles)} tiles")
        return 0

    if args.task == "retrieve":
        rankings, (ap100s, ap20s) = evaluation.retrieval_ap(
            class_embs, tiles.ids, embed_images(params, tiles.features), gts, (100, 20)
        )
        lines = [
            f"{name}\t{','.join(map(tiles.ids.__getitem__, order.tolist()))}\t"
            + ",".join(["%.6f"] * len(scores)) % tuple(scores.tolist())
            for name, (order, scores) in zip(world.class_names, rankings)
        ]
        metric_lines = [f"{name} {float(a100)!r} {float(a20)!r}"
                        for name, a100, a20 in zip(world.class_names, ap100s, ap20s)]
        (out / "retrieval_results.txt").write_text("\n".join(lines) + "\n")
        (out / "retrieval_metrics.txt").write_text(
            "\n".join(metric_lines)
            + f"\nmean {float(np.mean(ap100s))!r} {float(np.mean(ap20s))!r}\n"
        )
        print(f"retrieve: mAP@100={np.mean(ap100s):.4f} mAP@20={np.mean(ap20s):.4f} "
              f"over {len(world.class_names)} queries")
        return 0

    pred = evaluation.segment_tiles(params, tiles.features, class_embs)
    accs, mean_acc = evaluation.per_class_accuracy(pred.reshape(1, -1), gt_grids.reshape(1, -1))
    table = "".join(
        f"{world.class_names[c]} {accs[c]!r}\n" for c in sorted(accs)
    )
    (out / "segment_metrics.txt").write_text(table + f"mean {mean_acc!r}\n")
    print("segment: per-class accuracy over classes present in ground truth")
    for c in sorted(accs):
        print(f"  {world.class_names[c]:12s} {accs[c]:.4f}")
    print(f"  mean {mean_acc:.4f}")
    return 0


def cmd_map(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _outdir(args)
    world = _load_world(args)
    params, _ = _load_checkpoint_or_mismatch(args.checkpoint)
    spec = cfg.tile_spec()
    target_ts = int(np.mean(world.grounds.timestamp)) if len(world.grounds) else 0
    snap_ts = [s.timestamp for s in world.snapshots]
    if not snap_ts:
        raise IntegrityError("snapshot manifest is empty")
    snapshot = world.snapshots[corpus.select_snapshot(snap_ts, target_ts)]
    fld = corpus.resolve_fields([snapshot], args.world)[snapshot.blob_ref]
    _check_compatible(params, world, fld.feature_dim, spec.grid_px ** 2)
    query_emb = embed_text(world.text_encoder, args.query, cfg.prompt_set())

    lat_min, lat_max, lon_min, lon_max = fld.bounds
    cell_m = cfg["map.cell_px"] * spec.resolution_m_per_px
    lon_m_per_degree = geo.METERS_PER_DEGREE * math.cos(math.radians(fld.origin.lat))
    dlat = cell_m / geo.METERS_PER_DEGREE
    dlon = cell_m / lon_m_per_degree
    lat_centers = np.arange(lat_max - dlat / 2, lat_min, -dlat)
    lon_centers = np.arange(lon_min + dlon / 2, lon_max, dlon)
    if not (len(lat_centers) and len(lon_centers)):
        raise ConfigError(f"map.cell_px={cfg['map.cell_px']} leaves no cell center inside the "
                          f"world's {(lat_max - lat_min) * geo.METERS_PER_DEGREE:.0f} x "
                          f"{(lon_max - lon_min) * lon_m_per_degree:.0f} m extent")

    # cells row-major, materialized and embedded one field block at a time, so
    # the map never holds every cell's features (7921 cells as float32 would
    # be 99 MB)
    rows, cols = len(lat_centers), len(lon_centers)
    cell_lat = np.repeat(lat_centers, cols)
    cell_lon = geo.wrap_lon(np.tile(lon_centers, rows))
    cell_embs = np.empty((rows * cols, params.embed_dim))
    for start in range(0, rows * cols, corpus.FIELD_BLOCK_TILES):
        cells = slice(start, start + corpus.FIELD_BLOCK_TILES)
        lat, lon = cell_lat[cells], cell_lon[cells]
        features = corpus.materialize_many(fld, spec, lat, lon, [snapshot.timestamp] * len(lat))
        cell_embs[cells] = embed_images(params, features)

    dmap = evaluation.DensityMap(cell_embs.reshape(rows, cols, -1) @ query_emb,
                                 geo.GeoPoint(lat_centers[0], lon_centers[0]), cell_m)
    scores = dmap.scores
    safe = args.query.replace(" ", "_")
    grid_path = out / f"density_{safe}.grid"
    pgm_path = out / f"density_{safe}.pgm"
    dmap.save_grid(grid_path)
    dmap.save_pgm(pgm_path)
    cfg.write_snapshot(out)
    print(f"density map for {args.query!r}: {scores.shape[0]}x{scores.shape[1]} cells")
    print(f"  score range [{scores.min():.4f}, {scores.max():.4f}]")
    print(f"  written to {grid_path} and {pgm_path}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "build": cmd_build,
    "train": cmd_train,
    "eval": cmd_eval,
    "map": cmd_map,
}


def _setup_logging() -> None:
    level_name = os.environ.get("GRAFT_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ManifestError, IntegrityError, DatasetFormatError, EmptyDatasetError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 5
    except (MismatchError, MissingEmbeddingError, DegenerateOutputError) as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
