"""Every script under demos/ runs cleanly against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rangekit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(Path(rangekit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip() != ""
    assert list(tmp_path.iterdir()) == []  # demos print; they write no files
