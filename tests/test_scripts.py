from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

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
    # a small world and one epoch: the scripts score through graft.evaluation
    out = tmp_path / "out.tsv"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / script), "--seeds", "0", "--n-ground", "500",
         "--extent-km", "8", "--epochs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert out.read_text().splitlines()[0] == TSV_HEADERS[script]


def test_run_synth_pipeline_end_to_end(tmp_path):
    # the one CLI path that evaluates on held-out tiles
    out = tmp_path / "pipeline"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "run_synth_pipeline.py"), "--out", str(out),
         "--n-ground", "500", "--extent-km", "8", "--epochs", "1", "--holdout", "20"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("classify_metrics.txt", "retrieval_metrics.txt", "segment_metrics.txt"):
        assert (out / "eval" / name).is_file(), name
    for name in ("density_water.grid", "density_water.pgm"):
        assert (out / "maps" / name).is_file(), name
