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
