"""Self-tests of the benchmark harness on a tiny world that runs in seconds.

    python3 -m pytest -q bench/test_bench.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that traced spans nest and their self times add up to the root, and
that a failing operation is counted instead of raised.
"""

from __future__ import annotations

import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (first: it pins the BLAS threads before numpy loads)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import pipeline  # noqa: E402
import tracing  # noqa: E402
from graft import cli, train  # noqa: E402

TINY = pipeline.Workload(
    "tiny", ("world.extent_km=2", "world.n_ground=200", "map.cell_px=448"),
    loss="pixel", epochs=2,
)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """run.main confined to tmp_path, with the tiny workloads registered."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "TRACES", tmp_path / "traces")
    monkeypatch.setitem(pipeline.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(
        pipeline.WORKLOADS, "broken",
        pipeline.Workload("broken", ("world.n_ground=0",), loss="image", epochs=1),
    )
    return tmp_path


def result_of(capsys, *argv) -> dict:
    assert run.main(["--seed", "0", "--seconds", "0", *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_untraced_run_emits_every_end_to_end_metric(bench, capsys):
    result = result_of(capsys, "--workload", "tiny", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert declared("end_to_end") == pipeline.END_TO_END_UNITS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == pipeline.END_TO_END_UNITS
    assert all(m["value"] > 0 and math.isfinite(m["value"]) for m in result["metrics"].values())
    assert not list((bench / "work").iterdir()), "repetition directories left behind"


def test_traced_run_emits_every_per_layer_metric(bench, capsys):
    result = result_of(capsys, "--workload", "tiny", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert declared("per_layer") == tracing.PER_LAYER_UNITS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == tracing.PER_LAYER_UNITS
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["losses.pixel_loss_anchors_s"] > 0 and values["losses.image_loss_s"] == 0
    assert values["corpus.make_batches_calls"] == TINY.epochs + 1
    assert 0 < values["encoder.anchor_rows_per_pair"] <= 1
    assert (bench / "traces" / "tiny-seed0.npz").is_file()


def test_spans_nest_and_self_times_sum_to_the_root(tmp_path):
    tracer = tracing.Tracer()
    ledger = pipeline.Ledger(log=io.StringIO())
    results = run.measure(TINY, 0, 0.0, tmp_path, ledger, tracer)
    assert ledger.failed == 0 and [t for t, _ in results] == [False, True]

    arr = tracer.arrays()
    parent = arr["parent"]
    child = parent >= 0
    assert np.all(arr["start"][child] >= arr["start"][parent[child]])
    assert np.all(arr["end"][child] <= arr["end"][parent[child]])
    assert np.all(arr["self"] >= -1e-9)
    roots = np.flatnonzero(~child)
    assert [tracer.names[arr["name"][r]] for r in roots] == ["bench.pipeline"]
    assert math.isclose(arr["self"].sum(), arr["dur"][roots[0]], rel_tol=1e-9)
    stage_spans = {tracer.names[n] for n in arr["name"][parent == roots[0]]}
    assert stage_spans == {f"bench.{s}" for s, _ in pipeline.STAGES}
    assert {"encoder.forward_patch_rows", "cli.cmd_map", "train.train", "corpus.materialize"} \
        <= set(tracer.names)

    # leaving the trace restores every binding it wrapped
    assert not hasattr(train.forward_patch_rows, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for fn in cli._COMMANDS.values())


def test_truncated_container_is_a_counted_failure(tmp_path):
    ledger = pipeline.Ledger(log=io.StringIO())
    argvs = pipeline.argv_for(TINY, 0, tmp_path)
    for op in ("synth", "build"):
        assert ledger.op(op, pipeline.run_command, argvs[op])[0]
    container = tmp_path / "data" / "dataset.grft"
    container.write_bytes(container.read_bytes()[: container.stat().st_size // 2])
    ok, _ = ledger.op("train", pipeline.run_command, argvs["train"])
    assert not ok
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert "exited with 4" in ledger.failures[0]

    ok, _ = ledger.op("eval", pipeline.run_command, ["eval", "no-such-task"])
    assert not ok and "exited with 2" in ledger.failures[1]


def test_failing_command_fails_the_run_without_raising(bench, capsys):
    result = result_of(capsys, "--workload", "broken", "--trace", "0")
    assert not result["correct"]
    n_ops = len(pipeline.COMMANDS) + len(pipeline.CHECKS)
    assert result["attempted"] == n_ops + 1  # + the single-thread check
    assert result["failed"] == n_ops
    assert result["metrics"] == {}
