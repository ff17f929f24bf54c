"""The runnable experiments under ``scripts/`` run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vqround

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(vqround.__file__).resolve().parent.parent
TINY = ["--rows", "16", "--cols", "16", "--samples", "32", "--kmeans-iters", "3"]


@pytest.mark.parametrize("script, args, outputs", [
    ("run_pipeline.py", TINY + ["--k", "8", "--steps", "5", "--out-dir", "out"],
     ["out/tail.csv", "out/norms.csv"]),
    ("codebook_grid.py", TINY + ["--k-grid", "8", "--d-grid", "4", "8", "--out", "grid.csv"],
     ["grid.csv"]),
])
def test_script_runs(tmp_path, script, args, outputs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
