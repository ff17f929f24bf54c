"""The runnable experiments under ``scripts/`` run end to end at tiny sizes."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import vqround

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(vqround.__file__).resolve().parent.parent


def test_codebook_grid_runs_each_clamped_setting_once(tmp_path):
    # A 16x16 layer has 32 blocks of 8 and 64 of 4, so k=64 clamps to 32
    # at d=8 and names the setting k=32 already gave.
    args = ["--rows", "16", "--cols", "16", "--samples", "32", "--kmeans-iters", "3",
            "--k-grid", "32", "64", "--d-grid", "4", "8", "--out", "grid.csv"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "codebook_grid.py"), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "grid.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == ["k", "d", "params", "latent_err_inf", "latent_err_fro",
                             "hard_output_mse", "opt_output_mse", "opt_over_rtn"]
    assert [(row["k"], row["d"]) for row in rows] == [("32", "4"), ("32", "8"), ("64", "4")]
    for row in rows:
        ratio = float(row["opt_over_rtn"])
        assert math.isfinite(ratio) and ratio > 0
