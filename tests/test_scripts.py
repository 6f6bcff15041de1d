from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graft import corpus, evaluation

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    # every script imports the package and parses its flags before any work
    done = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout



# first line of each experiment script's TSV output
TSV_HEADERS = {
    "ablation_losses.py": "variant\taccuracy\tmap20\tseg_accuracy\tseconds",
    "scaling_curve.py": "fraction\tmean_accuracy\tseed0",
}


@pytest.mark.parametrize("script", sorted(TSV_HEADERS))
def test_script_runs_end_to_end(script, tmp_path):
    # a small world and one epoch: the scripts train and score through the CLI
    out = tmp_path / "out.tsv"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / script), "--seeds", "0", "--n-ground", "500",
         "--extent-km", "8", "--epochs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert out.read_text().splitlines()[0] == TSV_HEADERS[script]


def test_run_synth_pipeline_end_to_end(tmp_path):
    out = tmp_path / "pipeline"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "run_synth_pipeline.py"), "--out", str(out),
         "--n-ground", "500", "--extent-km", "8", "--epochs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("classify_metrics.txt", "retrieval_metrics.txt", "segment_metrics.txt"):
        assert (out / "eval" / name).is_file(), name
    for name in ("density_water.grid", "density_water.pgm"):
        assert (out / "maps" / name).is_file(), name
    # the evals scored the held-out world's container, tile by tile, against
    # that world's own ground truth
    held = corpus.load_tiles(out / "holdout_data" / "dataset.grft")
    assert len(held) != len(corpus.load_tiles(out / "data" / "dataset.grft"))
    results = [line.split() for line in
               (out / "eval" / "classify_results.txt").read_text().splitlines()]
    field = corpus.load_world_dir(out / "holdout_world").field
    gt = evaluation.majority_labels(corpus.class_grids(field, held.spec, held.lat, held.lon),
                                    len(field.class_names))
    assert [tile for tile, _, _ in results] == held.ids
    assert np.array_equal([int(g) for _, _, g in results], gt)
