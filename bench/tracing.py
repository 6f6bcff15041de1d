"""In-memory span tracer that wraps the public functions of each graft module.

`Tracer.installed()` replaces every public function of the traced modules,
plus a few named methods, with a wrapper that records a span: name, start,
end, parent span and the run (workload/seed/repetition) it belongs to. A
function imported by name into another module is wrapped at that binding too
(e.g. `graft.train.forward_tile`, `graft.cli.train`), as are module-level
dispatch tables (`graft.cli._COMMANDS`), so no call escapes the trace. The
program's sources are not touched, and leaving the context restores every
binding. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# `config` resolves once per command in well under a millisecond, so it is
# deliberately left untraced.
LAYERS = ("geo", "corpus", "frozen", "losses", "encoder", "train", "evaluation", "cli")
STAGE_NAMES = ("setup", "train", "eval", "map")
METHODS = {"corpus": {"VoronoiFeatureField": ("materialize", "class_grid")}}

# Per-layer metrics. `<span>_s` is the summed inclusive time of a span name,
# `<span>_calls` its call count and `<span>_self_s` its summed self time; the
# others are computed explicitly in `Tracer.layer_metrics`.
SPAN_METRICS = (
    "geo.sample_tiles_s",
    "geo.cap_subsample_s",
    "geo.geotag_to_pixel_calls",
    "geo.geotag_to_pixel_s",
    "corpus.materialize_calls",
    "corpus.materialize_s",
    "corpus.class_grid_s",
    "corpus.load_dataset_s",
    "corpus.load_dataset_calls",
    "corpus.save_dataset_s",
    "corpus.make_batches_s",
    "corpus.make_batches_calls",
    "corpus.load_world_dir_s",
    "frozen.load_embeddings_s",
    "frozen.embed_ground_calls",
    "losses.image_loss_s",
    "losses.pixel_loss_anchors_s",
    "encoder.forward_tile_calls",
    "encoder.forward_tile_s",
    "encoder.encoder_backward_s",
    "encoder.forward_patch_rows_s",
    "encoder.encoder_forward_s",
    "train.batch_ground_groups_s",
    "train.adamw_update_s",
    "train.loss_and_param_grads_self_s",
    "evaluation.retrieve_s",
    "evaluation.segment_patches_s",
    "evaluation.multilabel_map_s",
    "cli.build_self_s",
    "cli.map_self_s",
    "cli.eval_self_s",
)
SPAN_ALIAS = {"cli.build": "cli.cmd_build", "cli.map": "cli.cmd_map", "cli.eval": "cli.cmd_eval"}

PER_LAYER_UNITS = {
    **{m: ("count" if m.endswith("_calls") else "s") for m in SPAN_METRICS},
    "corpus.dataset_bytes": "bytes",
    "losses.logit_cells": "count",
    "encoder.anchor_rows_per_pair": "ratio",
    "train.steps": "count",
    "train.step_p50_ms": "ms",
    "train.step_p90_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    **{f"stage_{st}.{layer}_self_s": "s" for st in STAGE_NAMES for layer in LAYERS},
}


def _logit_cells(counters, args, kwargs):
    """anchors x grounds of one contrastive loss call: (anchors, groups, tau)."""
    anchors, groups = args[0], args[1]
    counters["losses.logit_cells"] += len(anchors) * sum(g.size for g in groups)


def _pixel_anchors(counters, args, kwargs):
    _logit_cells(counters, args, kwargs)
    counters["losses.pixel_anchors"] += len(args[0])


def _patch_rows(counters, args, kwargs):
    counters["encoder.patch_rows"] += len(args[1])


# Counts taken from the arguments of a traced call, keyed by span name.
COUNTERS = {
    "losses.image_loss": _logit_cells,
    "losses.pixel_loss_anchors": _pixel_anchors,
    "encoder.forward_patch_rows": _patch_rows,
}


class Tracer:
    """Spans in parallel lists; a span's parent is created before the span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.counters: list[dict[str, float]] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(len(self.runs) - 1)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_run(self, label: str) -> None:
        """Spans recorded from now on belong to a new run (one repetition)."""
        self.runs.append(label)
        self.counters.append({"losses.logit_cells": 0, "losses.pixel_anchors": 0,
                              "encoder.patch_rows": 0})

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span, e.g. a pipeline stage."""
        i = self._open(self._name_id(f"bench.{name}"))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if count is not None:
                count(tracer.counters[-1], args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at every graft binding; restore on exit."""
        mods = {layer: importlib.import_module(f"graft.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        restore: list = []
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{layer}.{meth}", fn))

        def wrapped(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        graft_mods = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "graft" or n.startswith("graft."))]
        for mod in graft_mods:
            for attr, obj in list(vars(mod).items()):
                if (w := wrapped(obj)) is not None:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, w)
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if (w := wrapped(value)) is not None:
                            restore.append((obj, key, value))
                            obj[key] = w
        try:
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    # ---- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with per-span duration, self time and stage."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        stage_ids = {self._name_ids.get(f"bench.{s}", -1): k for k, s in enumerate(STAGE_NAMES)}
        stage = np.full(len(dur), -1, dtype=np.int32)
        for i, (nid, par) in enumerate(zip(self.name, self.parent)):
            k = stage_ids.get(nid)
            stage[i] = k if k is not None else (stage[par] if par >= 0 else -1)
        return {
            "name": name, "parent": parent, "run": np.array(self.run, dtype=np.int32),
            "start": start, "end": end, "dur": dur, "self": dur - child, "stage": stage,
        }

    def layer_metrics(self, run: int, arr: dict[str, np.ndarray]) -> dict[str, float]:
        """Per-layer metrics of one traced run (without the cross-run `trace.*`)."""
        sel = arr["run"] == run
        n_names = len(self.names)
        names = arr["name"][sel]
        calls = np.bincount(names, minlength=n_names)
        incl = np.bincount(names, weights=arr["dur"][sel], minlength=n_names)
        self_t = np.bincount(names, weights=arr["self"][sel], minlength=n_names)

        def lookup(table, span):
            span = SPAN_ALIAS.get(span, span)
            nid = self._name_ids.get(span)
            return float(table[nid]) if nid is not None else 0.0

        out: dict[str, float] = {}
        for metric in SPAN_METRICS:
            if metric.endswith("_self_s"):
                out[metric] = lookup(self_t, metric[: -len("_self_s")])
            elif metric.endswith("_calls"):
                out[metric] = lookup(calls, metric[: -len("_calls")])
            else:
                out[metric] = lookup(incl, metric[: -len("_s")])

        counters = self.counters[run]
        out["losses.logit_cells"] = float(counters["losses.logit_cells"])
        out["encoder.anchor_rows_per_pair"] = (
            counters["encoder.patch_rows"] / counters["losses.pixel_anchors"]
            if counters["losses.pixel_anchors"] else 0.0
        )
        out["train.steps"] = lookup(calls, "train.train_step")
        out["trace.spans"] = float(sel.sum())

        layer_of = np.array([LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS
                             else -1 for n in self.names], dtype=np.int32)
        stages, layers = arr["stage"][sel], layer_of[names]
        keep = (stages >= 0) & (layers >= 0)
        per = np.bincount(stages[keep] * len(LAYERS) + layers[keep],
                          weights=arr["self"][sel][keep],
                          minlength=len(STAGE_NAMES) * len(LAYERS))
        for k, st in enumerate(STAGE_NAMES):
            for j, layer in enumerate(LAYERS):
                out[f"stage_{st}.{layer}_self_s"] = float(per[k * len(LAYERS) + j])
        return out

    def step_ms(self, runs: list[int], arr: dict[str, np.ndarray]) -> list[float]:
        """Durations of every training step of the given runs, in ms."""
        sel = np.isin(arr["run"], runs) & (arr["name"] == self._name_ids.get("train.train_step", -1))
        return (arr["dur"][sel] * 1e3).tolist()

    def stage_ranking(self, run: int, arr: dict[str, np.ndarray], top: int = 5):
        """Per stage, the span names with the largest summed self time."""
        sel = arr["run"] == run
        ranking = {}
        for k, st in enumerate(STAGE_NAMES):
            in_stage = sel & (arr["stage"] == k)
            totals = np.bincount(arr["name"][in_stage], weights=arr["self"][in_stage],
                                 minlength=len(self.names))
            order = np.argsort(-totals, kind="stable")[:top]
            ranking[st] = [(self.names[i], float(totals[i])) for i in order if totals[i] > 0]
        return ranking

    def save(self, path: Path, arr: dict[str, np.ndarray], meta: dict) -> None:
        """Write every span (name, start, end, parent, run) plus tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=arr["name"], start=arr["start"], end=arr["end"],
            parent=arr["parent"], run=arr["run"],
            names=np.array(self.names), runs=np.array(self.runs),
            meta=np.array(json.dumps(meta)),
        )
