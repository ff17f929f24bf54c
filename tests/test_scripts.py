"""The runnable experiments under ``scripts/`` run end to end at tiny sizes."""

import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vqround

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(vqround.__file__).resolve().parent.parent

# A 16x16 layer has 32 blocks of 8 and 64 of 4, so k=64 clamps to 32 at
# d=8 and names the setting k=32 already gave.
GRID_ARGS = ["--rows", "16", "--cols", "16", "--samples", "32", "--kmeans-iters", "3",
             "--k-grid", "32", "64", "--d-grid", "4", "8", "--out", "grid.csv"]

# sha256 of the CSV that GRID_ARGS write: the seed latent, the codebooks,
# the 500 blockwise steps and the hardened errors must not change a byte.
# The figures are those of numpy 2.4's OpenBLAS 0.3.31 on x86-64; another
# BLAS may round them apart.
GRID_CSV_SHA256 = "5760ff962af3846d28f9723c53572307fae35da6c0401da0f5782e4e64eea4af"


@pytest.fixture(scope="module")
def grid_csv(tmp_path_factory):
    """The CSV path of one codebook_grid.py run with GRID_ARGS."""
    cwd = tmp_path_factory.mktemp("grid")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "codebook_grid.py"), *GRID_ARGS],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return cwd / "grid.csv"


def test_codebook_grid_runs_each_clamped_setting_once(grid_csv):
    with open(grid_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == ["k", "d", "params", "latent_err_inf", "latent_err_fro",
                             "hard_output_mse", "opt_output_mse", "opt_over_rtn"]
    assert [(row["k"], row["d"]) for row in rows] == [("32", "4"), ("32", "8"), ("64", "4")]
    for row in rows:
        ratio = float(row["opt_over_rtn"])
        assert math.isfinite(ratio) and ratio > 0


def test_codebook_grid_output_is_pinned(grid_csv):
    assert hashlib.sha256(grid_csv.read_bytes()).hexdigest() == GRID_CSV_SHA256
