"""Command-line pipeline: synth -> build -> train -> eval/map.

Every command takes `--config PATH` (key-value file), `--seed`, `--out DIR`
and repeatable `--set key=value` overrides (flags win over the file). Each
run writes a resolved-config snapshot next to its outputs, and identical
(config, seed) runs produce byte-identical primary outputs. The `GRAFT_LOG`
environment variable sets log verbosity (debug/info/warning).

Exit codes by failure class: 2 config, 3 I/O, 4 manifest/referential
integrity or a corrupt container, fixture or world.json, 5 training
divergence, 6 checkpoint/world mismatch, a corrupt checkpoint or missing
fixture entries.
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
from .encoder import SatEncoderParams, embed_images, encoder_forward
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
    p.add_argument("--loss", choices=["image", "pixel", "sum_prob", "avg_rep", "l2"],
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
        cfg.seed = args.seed
    if getattr(args, "loss", None):
        cfg.loss_variant = _LOSS_FLAG[args.loss]
    if getattr(args, "epochs", None) is not None:
        cfg.train_epochs = args.epochs
    return cfg


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_world(args: argparse.Namespace) -> LoadedWorld:
    return corpus.load_world_dir(args.world)


def _class_prompt_embeddings(world: LoadedWorld, cfg: RunConfig) -> np.ndarray:
    prompts = cfg.prompt_set()
    return np.stack(
        [embed_text(world.text_encoder, name, prompts) for name in world.class_names]
    )


def _check_compatible(params: SatEncoderParams, world: LoadedWorld,
                      ds: corpus.PairedDataset | None) -> None:
    if params.embed_dim != world.ground_encoder.dim:
        raise MismatchError(
            f"checkpoint embeds into {params.embed_dim} dims but world fixtures "
            f"have {world.ground_encoder.dim}"
        )
    if ds is not None and ds.tiles:
        tile = ds.tiles[0]
        if params.feature_dim != tile.feature_dim:
            raise MismatchError(
                f"checkpoint expects {params.feature_dim}-dim features but dataset "
                f"tiles carry {tile.feature_dim}"
            )
        if params.n_patches != tile.spec.grid_px ** 2:
            raise MismatchError(
                f"checkpoint pools {params.n_patches} patches but tiles have "
                f"{tile.spec.grid_px ** 2}"
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
    world = corpus.synth_world(cfg.world_config(), seed=cfg.seed)
    paths = world.write(out)
    cfg.write_snapshot(out)
    print(f"world written to {out}")
    print(f"  classes (K={cfg.world_classes}): {', '.join(world.class_names)}")
    print(f"  ground images: {len(world.grounds)}  snapshots: {len(world.snapshots)}")
    print(f"  seed: {cfg.seed}")
    log.info("world files: %s", {k: str(p) for k, p in paths.items()})
    return 0


def _min_center_separation_m(tiles: list[corpus.SatTileRecord]) -> float:
    lats = np.array([t.spec.center.lat for t in tiles])
    lons = np.array([t.spec.center.lon for t in tiles])
    best = math.inf
    for i in range(len(tiles) - 1):
        dn = (lats[i] - lats[i + 1 :]) * geo.METERS_PER_DEGREE
        de = (
            (lons[i] - lons[i + 1 :])
            * geo.METERS_PER_DEGREE
            * np.cos(np.radians((lats[i] + lats[i + 1 :]) / 2))
        )
        d = np.sqrt(dn * dn + de * de)
        best = min(best, float(d.min()))
    return best


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _outdir(args)
    world = _load_world(args)
    spec = cfg.tile_spec()
    ds = corpus.build_pairs(
        world.grounds,
        world.snapshots,
        spec,
        cap=cfg.pair_cap,
        min_sep_px=cfg.pair_min_sep_px,
        seed=cfg.seed,
        fields=corpus.resolve_fields(world.snapshots, args.world),
        embeddings=world.ground_encoder,
        channels=cfg.world_channels,
    )
    corpus.validate_dataset(ds)
    dataset_path = out / "dataset.grft"
    corpus.save_dataset(ds, dataset_path)
    cfg.write_snapshot(out)

    max_grounds = max(len(a) for a in ds.assignments)
    print(f"dataset written to {dataset_path}")
    print(f"  tiles: {len(ds.tiles)}  pairs: {ds.n_pairs}  max grounds/tile: {max_grounds}")
    required = cfg.pair_min_sep_px * spec.resolution_m_per_px
    if len(ds.tiles) > 1:
        min_sep = _min_center_separation_m(ds.tiles)
        status = "ok" if min_sep >= required else "VIOLATED"
        print(f"  min center separation: {min_sep:.1f} m (required >= {required:.1f} m) {status}")
    return 0


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    loss_cfg, sched, batch_size = cfg.loss_config(), cfg.schedule(), cfg.batch_size()
    out = _outdir(args)
    world = _load_world(args)
    ds = corpus.load_dataset(args.dataset)
    result = train(
        ds,
        world.ground_encoder,
        loss_cfg,
        sched,
        batch_size=batch_size,
        hidden_dim=cfg.train_hidden_dim,
    )
    ckpt_path = out / "checkpoint.grcp"
    save_checkpoint(ckpt_path, result.params, result.provenance)
    history_path = out / "history.txt"
    history_path.write_text(
        "".join(f"{epoch} {loss!r}\n" for epoch, loss in enumerate(result.epoch_mean_loss))
    )
    cfg.write_snapshot(out)
    print(f"checkpoint written to {ckpt_path}")
    print(f"  loss variant: {cfg.loss_variant}  epochs: {cfg.train_epochs}  seed: {cfg.seed}")
    if result.epoch_mean_loss:
        print(f"  epoch mean loss: {result.epoch_mean_loss[0]:.6f} -> {result.epoch_mean_loss[-1]:.6f}")
    else:
        print("  epoch mean loss: (no epochs run)")
    return 0


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _outdir(args)
    world = _load_world(args)
    ds = corpus.load_dataset(args.dataset)
    params, _ = _load_checkpoint_or_mismatch(args.checkpoint)
    _check_compatible(params, world, ds)
    class_embs = _class_prompt_embeddings(world, cfg)
    gt_grids = [world.field.class_grid(t.spec).ravel() for t in ds.tiles]
    gts = np.array([int(np.bincount(grid).argmax()) for grid in gt_grids])
    cfg.write_snapshot(out)

    if args.task == "classify":
        embs = embed_images(params, [t.patch_features for t in ds.tiles])
        scores = embs @ class_embs.T
        preds = np.array([evaluation.zero_shot_classify(img, class_embs) for img in embs],
                         dtype=int)
        accuracy = float(np.mean(preds == gts))
        onehot = np.zeros_like(scores)
        onehot[np.arange(len(gts)), gts] = 1.0
        mean_ap = evaluation.multilabel_map(scores, onehot)
        (out / "classify_results.txt").write_text(
            "".join(f"{t.id} {p} {g}\n" for t, p, g in zip(ds.tiles, preds, gts))
        )
        (out / "classify_metrics.txt").write_text(
            f"n_items {len(ds.tiles)}\naccuracy {accuracy!r}\nmultilabel_map {mean_ap!r}\n"
        )
        print(f"classify: accuracy={accuracy:.4f} multilabel_map={mean_ap:.4f} "
              f"on {len(ds.tiles)} tiles")
        return 0

    if args.task == "retrieve":
        embs = embed_images(params, [t.patch_features for t in ds.tiles])
        ids = [t.id for t in ds.tiles]
        gt_of = dict(zip(ids, gts))
        lines, metric_lines = [], []
        ap100s, ap20s = [], []
        for c, name in enumerate(world.class_names):
            ranked = evaluation.retrieve(class_embs[c], ids, embs, query_id=name)
            flags = [1 if gt_of[i] == c else 0 for i in ranked.item_ids]
            ap100 = evaluation.average_precision_at_k(flags, 100)
            ap20 = evaluation.average_precision_at_k(flags, 20)
            ap100s.append(ap100)
            ap20s.append(ap20)
            lines.append(
                f"{name}\t{','.join(ranked.item_ids)}\t"
                + ",".join(f"{s:.6f}" for s in ranked.scores)
            )
            metric_lines.append(f"{name} {ap100!r} {ap20!r}")
        (out / "retrieval_results.txt").write_text("\n".join(lines) + "\n")
        (out / "retrieval_metrics.txt").write_text(
            "\n".join(metric_lines)
            + f"\nmean {float(np.mean(ap100s))!r} {float(np.mean(ap20s))!r}\n"
        )
        print(f"retrieve: mAP@100={np.mean(ap100s):.4f} mAP@20={np.mean(ap20s):.4f} "
              f"over {len(world.class_names)} queries")
        return 0

    # segment
    pred_flat = []
    for tile in ds.tiles:
        patch_embs, _ = encoder_forward(params, tile.patch_features)
        labels, _ = evaluation.segment_patches(patch_embs, class_embs)
        pred_flat.append(labels.ravel())
    pred = np.concatenate(pred_flat)[None, :]
    gt = np.concatenate(gt_grids)[None, :]
    accs, mean_acc = evaluation.per_class_accuracy(pred, gt)
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
    _check_compatible(params, world, None)
    query_emb = embed_text(world.text_encoder, args.query, cfg.prompt_set())
    spec = cfg.tile_spec()
    if params.n_patches != spec.grid_px ** 2 or params.feature_dim != world.field.feature_dim:
        raise MismatchError("checkpoint does not match the tile/field configuration")

    lat_min, lat_max, lon_min, lon_max = world.field.bounds
    cell_m = cfg.map_cell_px * spec.resolution_m_per_px
    dlat = cell_m / geo.METERS_PER_DEGREE
    dlon = cell_m / (
        geo.METERS_PER_DEGREE * math.cos(math.radians(world.field.origin.lat))
    )
    lat_centers = np.arange(lat_max - dlat / 2, lat_min, -dlat)
    lon_centers = np.arange(lon_min + dlon / 2, lon_max, dlon)
    target_ts = int(np.mean([g.timestamp for g in world.grounds])) if world.grounds else 0
    snap_ts = [s.timestamp for s in world.snapshots]
    snapshot = world.snapshots[corpus.select_snapshot(snap_ts, target_ts)]

    scores = np.zeros((len(lat_centers), len(lon_centers)))
    for r, lat in enumerate(lat_centers):
        for c, lon in enumerate(lon_centers):
            cell = geo.TileSpec(geo.GeoPoint(lat, lon), spec.resolution_m_per_px,
                                spec.size_px, spec.patch_px)
            features = world.field.materialize(cell, snapshot.timestamp)
            _, img = encoder_forward(params, features)
            scores[r, c] = float(img @ query_emb)

    dmap = evaluation.DensityMap(
        scores=scores,
        origin=geo.GeoPoint(lat_centers[0], lon_centers[0]),
        cell_m=cell_m,
        query=args.query,
    )
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
    except (MismatchError, MissingEmbeddingError) as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
