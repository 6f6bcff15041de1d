"""Training loop: AdamW with linear warmup and cosine decay over alignment losses.

Image-level variants contrast pooled tile embeddings against frozen ground
embeddings; the pixel-level variant anchors each pair at the patch containing
the ground image's geotag, so only patches that actually carry supervision
receive gradient. Everything is plain float64 numpy with a fixed reduction
order: identical (config, seed) runs produce bit-identical parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import losses
from .codec import FileBytes, Reader, Writer
from .corpus import EmptyDatasetError, PairBatch, PairedDataset, make_batches
from .encoder import (
    PARAM_NAMES,
    SatEncoderParams,
    encoder_backward,
    forward_patch_rows,
    image_backward,
    image_forward,
    init_params,
)
from .frozen import DegenerateEmbeddingError, FrozenEncoder, embed_grounds
from .losses import LossConfig

CHECKPOINT_MAGIC = b"GRCP"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Largest L2-norm deviation from 1 of an encoder output row that reaches a loss.
UNIT_TOL = 1e-6


class DivergenceError(RuntimeError):
    """Encoder output, loss, gradient or parameters degenerated during training."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class TrainSchedule:
    """Optimization schedule. Zero warmup_steps/total_steps mean "derive".

    total_steps == 0 is resolved by `train` to epochs x batches-per-epoch; once
    total_steps is set, warmup_steps == 0 becomes 10% of it (at least one step).
    The default peak learning rate suits the small from-scratch encoder trained
    here; reference runs that fine-tune a large pretrained backbone used 1e-5
    (image level) and 5e-5 (pixel level) instead.
    """

    peak_lr: float = 1e-3
    warmup_steps: int = 0
    total_steps: int = 0
    weight_decay: float = 1e-2
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.peak_lr < math.inf and 0 <= self.weight_decay < math.inf
                and self.epochs >= 0 and self.warmup_steps >= 0):
            raise ValueError("peak_lr and weight_decay must be finite and non-negative, "
                             "epochs and warmup_steps non-negative")
        if self.total_steps > 0:
            if not self.warmup_steps:
                object.__setattr__(self, "warmup_steps", max(1, self.total_steps // 10))
            if self.warmup_steps > self.total_steps:
                raise ValueError(f"need 0 < warmup_steps <= total_steps, got "
                                 f"{self.warmup_steps} vs {self.total_steps}")

    def resolve(self, batches_per_epoch: int) -> "TrainSchedule":
        """Concrete schedule with total_steps pinned for this dataset."""
        total = self.total_steps or max(1, self.epochs * batches_per_epoch)
        return replace(self, warmup_steps=min(self.warmup_steps, total), total_steps=total)


def lr_at(step: int, sched: TrainSchedule) -> float:
    """Linear 0 -> peak over the warmup, then cosine decay to 0 at total_steps."""
    if not sched.total_steps:
        raise ValueError("a schedule has no steps until total_steps is set (see resolve)")
    if not (0 <= step <= sched.total_steps):
        raise ValueError(f"step {step} outside [0, {sched.total_steps}]")
    warmup = sched.warmup_steps
    if step <= warmup:
        return sched.peak_lr * step / warmup
    progress = (step - warmup) / (sched.total_steps - warmup)
    return sched.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: SatEncoderParams) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.arrays().items()},
            v={k: np.zeros_like(a) for k, a in params.arrays().items()},
        )


def adamw_update(
    params: SatEncoderParams,
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay adaptive-moment step, in place."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name in PARAM_NAMES:
        g = grads[name]
        p = getattr(params, name)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p)


def resolve_ground_embeddings(ds: PairedDataset, frozen: FrozenEncoder) -> np.ndarray:
    """Frozen embeddings of a dataset's grounds as one (len(ds.grounds), D) matrix.

    Resolved once per run, in one gather. Row g holds ground g's embedding
    when some tile pairs with it and stays zero otherwise, so an unpaired
    ground's reference is never looked up.
    """
    embs = np.zeros((len(ds.grounds), frozen.dim))
    paired = np.unique(ds.ground)
    embs[paired] = embed_grounds(frozen, list(map(ds.grounds.refs.__getitem__, paired.tolist())))
    return embs


def _require_unit_output(embs: np.ndarray) -> None:
    """A diverged encoder (non-finite or non-unit output) must not reach the loss."""
    dev = np.abs(np.linalg.norm(embs, axis=1) - 1.0)
    if not np.all(dev <= UNIT_TOL):
        raise DegenerateEmbeddingError(
            f"encoder output is non-finite or not unit-norm (deviation {np.max(dev):.3e})"
        )


# The image-level loss of each variant, as (sat_embs, grounds, sizes, tau).
_IMAGE_LOSSES = {
    "image_default": losses.image_loss,
    "sum_prob": losses.loss_sum_prob,
    "avg_rep": losses.loss_avg_rep,
    "l2": lambda sat_embs, grounds, sizes, tau: losses.loss_l2(sat_embs, grounds, sizes),
}


def _image_level_backward(
    params: SatEncoderParams,
    batch: PairBatch,
    grounds: np.ndarray,
    cfg: LossConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    # A diverged encoder overflows here: numpy stays silent and the output check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        sat_embs, cache = image_forward(params, batch.features)
        _require_unit_output(sat_embs)
    value, d_sat = _IMAGE_LOSSES[cfg.variant](sat_embs, grounds, batch.sizes, cfg.tau)
    return value, image_backward(params, cache, d_sat)


def _pixel_level_backward(
    params: SatEncoderParams,
    batch: PairBatch,
    grounds: np.ndarray,
    cfg: LossConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    # Only patches containing at least one ground image are forwarded, those
    # of every tile in one pass; all other patches receive no gradient.
    features = batch.features  # (B, G, G, F)
    n_patches = features.shape[1] * features.shape[2]
    tile_of_pair = np.repeat(np.arange(batch.n_tiles), batch.sizes)
    uniq, inverse = np.unique(tile_of_pair * n_patches + batch.patch, return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        embs, cache = forward_patch_rows(params, features.reshape(-1, features.shape[3])[uniq])
        _require_unit_output(embs)
    value, d_anchors = losses.pixel_loss_anchors(embs[inverse], grounds, batch.sizes, cfg.tau)

    d_rows = np.zeros((len(uniq), params.embed_dim))
    np.add.at(d_rows, inverse, d_anchors)
    return value, encoder_backward(params, cache, d_rows)


def loss_and_param_grads(
    params: SatEncoderParams,
    batch: PairBatch,
    ground_embs: np.ndarray,
    cfg: LossConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward the batch through the encoder and the configured loss; full grads.

    `ground_embs` is the matrix from resolve_ground_embeddings; the batch's
    positives are its rows `ground_embs[batch.ground]`, grouped by `batch.sizes`.
    """
    grounds = ground_embs[batch.ground]
    if cfg.variant == "pixel_default":
        return _pixel_level_backward(params, batch, grounds, cfg)
    return _image_level_backward(params, batch, grounds, cfg)


def train_step(
    params: SatEncoderParams,
    batch: PairBatch,
    ground_embs: np.ndarray,
    cfg: LossConfig,
    sched: TrainSchedule,
    step: int,
    state: AdamWState,
) -> float:
    """One optimizer step at lr_at(step), updating `params` and `state` in place;
    returns the loss."""
    try:
        value, grads = loss_and_param_grads(params, batch, ground_embs, cfg)
    except DegenerateEmbeddingError as exc:
        raise DivergenceError(step, str(exc)) from exc
    if not math.isfinite(value):
        raise DivergenceError(step, f"non-finite loss {value}")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(step, f"non-finite gradient in {name}")
    adamw_update(params, grads, state, lr_at(step, sched), sched.weight_decay)
    if not params.check_finite():
        raise DivergenceError(step, "non-finite parameters after update")
    return value


@dataclass
class TrainResult:
    params: SatEncoderParams
    epoch_mean_loss: list[float]
    provenance: dict


def config_digest(cfg: LossConfig, sched: TrainSchedule, extra: dict | None = None) -> str:
    payload = {"loss": asdict(cfg), "schedule": asdict(sched), "extra": extra or {}}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def train(
    ds: PairedDataset,
    frozen: FrozenEncoder,
    cfg: LossConfig,
    sched: TrainSchedule,
    batch_size: int = 32,
    hidden_dim: int = 32,
) -> TrainResult:
    """Train the satellite encoder on a paired dataset.

    Runs sched.epochs passes; each epoch reshuffles tiles with a seed derived
    from (sched.seed, epoch). With zero epochs the seeded initialization is
    returned untouched.
    """
    if len(ds.tiles) < 2:
        raise EmptyDatasetError(f"dataset holds {len(ds.tiles)} tile(s); training needs at least 2")
    if batch_size < 2:
        raise ValueError(f"batch_size {batch_size} < 2 leaves every tile without negatives")
    feature_dim = ds.tiles.features.shape[-1]
    n_patches = ds.tiles.spec.grid_px ** 2
    params = init_params(feature_dim, hidden_dim, frozen.dim, n_patches, seed=sched.seed)

    batches = make_batches(ds, batch_size, seed=_epoch_seed(sched.seed, 0))
    sched = sched.resolve(len(batches))
    ground_embs = resolve_ground_embeddings(ds, frozen)
    state = AdamWState.zeros_like(params)
    history: list[float] = []
    step = 0
    for epoch in range(sched.epochs):
        if epoch:
            batches = make_batches(ds, batch_size, seed=_epoch_seed(sched.seed, epoch))
        epoch_losses = []
        for batch in batches:
            step += 1
            epoch_losses.append(train_step(params, batch, ground_embs, cfg, sched, step, state))
        history.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))

    provenance = {
        "seed": sched.seed,
        "config_digest": config_digest(cfg, sched, {"batch_size": batch_size,
                                                    "hidden_dim": hidden_dim}),
        "loss_variant": cfg.variant,
        "epochs": sched.epochs,
        "steps": step,
        "n_tiles": len(ds.tiles),
    }
    return TrainResult(params=params, epoch_mean_loss=history, provenance=provenance)


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, 0xE70C, epoch]).generate_state(1)[0])


def save_checkpoint(path: str | Path, params: SatEncoderParams, provenance: dict) -> None:
    """Versioned binary checkpoint: parameter tensors as f64 plus provenance."""
    w = Writer()
    w.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    arrays = params.arrays()
    w.pack("<I", len(arrays))
    for name in PARAM_NAMES:
        arr = np.asarray(arrays[name])
        w.string(name)
        w.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        w.array(arr, "<f8")
    prov = Writer()
    prov.json(provenance)
    w.section(prov, "<I")
    w.save(path)


def load_checkpoint(path: str | Path) -> tuple[SatEncoderParams, dict]:
    """Read a checkpoint written by save_checkpoint; a bad file raises FormatError."""
    what = f"checkpoint {path}"
    r = Reader(FileBytes(path, what), what)
    r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I")[0]):
        name = r.string()
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        start = r.off
        arrays[name] = r.array("<f8", shape)
        if not np.isfinite(arrays[name]).all():
            raise r.fail(f"tensor {name!r} holds a non-finite value", start)
    provenance = r.section("<I").json()
    r.done()
    missing = set(PARAM_NAMES) - set(arrays)
    if missing:
        raise r.fail(f"missing parameter tensors {sorted(missing)}")
    h, d = arrays["b1"].size, arrays["b2"].size
    shapes = {k: arrays[k].shape for k in PARAM_NAMES}
    if shapes != {"w1": (h, arrays["w1"].size // max(h, 1)), "b1": (h,), "w2": (d, h),
                  "b2": (d,), "pool_logits": (arrays["pool_logits"].size,)}:
        raise r.fail(f"tensor shapes {shapes} do not fit one encoder")
    return SatEncoderParams(**{k: arrays[k] for k in PARAM_NAMES}), provenance
