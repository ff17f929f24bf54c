import contextlib
import csv
import hashlib
import importlib
import inspect
import io
import os
import sys
import threading

import numpy as np
import pytest

from pools import counted_submits, refuse_pool, two_cores
from vqround import analysis, cli, optim, parallel
from vqround.cli import main
from vqround.distill import random_net
from vqround.hessian import curvature_init
from vqround.optim import FinetuneConfig, optimize_blockwise
from vqround.quantize import QuantParams, compute_quant_params
from vqround.reparam import load_codebook, vq_reconstruct
from vqround.tensor_io import load_tensor, save_tensor


@pytest.fixture
def layer_files(tmp_path):
    rng = np.random.default_rng(0)
    w_path = tmp_path / "w.vqt"
    x_path = tmp_path / "x.vqt"
    save_tensor(rng.normal(size=(8, 8)), w_path)
    save_tensor(rng.normal(size=(8, 32)), x_path)
    return str(w_path), str(x_path)


def run_init(tmp_path, w_path, x_path, *extra):
    prefix = str(tmp_path / "init")
    code = main([
        "init", "--weights", w_path, "--calib", x_path,
        "--bits", "4", "--out-prefix", prefix, *extra,
    ])
    return code, prefix


@pytest.fixture
def large_layer_files(tmp_path):
    # 512x768 weights and 768x256 calibration: above every split gate of
    # the curvature init.
    rng = np.random.default_rng(5)
    w_path = tmp_path / "w_large.vqt"
    x_path = tmp_path / "x_large.vqt"
    save_tensor(rng.normal(size=(512, 768)), w_path)
    save_tensor(rng.normal(size=(768, 256)), x_path)
    return str(w_path), str(x_path)


LIBRARY_MODULES = ("analysis", "distill", "hessian", "optim", "parallel", "quantize", "reparam",
                   "tensor_io")


def record_threads(monkeypatch):
    """Wrap every public function of the library modules, in every
    ``vqround`` namespace that holds it, to record the thread it runs on.
    Returns the list of (name, thread) the wrappers fill."""
    seen = []
    namespaces = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "vqround"]
    for module in map(importlib.import_module, (f"vqround.{name}" for name in LIBRARY_MODULES)):
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue

            def wrapper(*args, _fn=fn, **kwargs):
                seen.append((_fn.__name__, threading.current_thread()))
                return _fn(*args, **kwargs)

            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        monkeypatch.setattr(namespace, attr, wrapper)
    return seen


class TestInit:
    def test_writes_four_tensors(self, tmp_path, layer_files, capsys):
        w_path, x_path = layer_files
        code, prefix = run_init(tmp_path, w_path, x_path)
        assert code == 0
        for suffix in ("_wq.vqt", "_b.vqt", "_h.vqt", "_a.vqt"):
            assert (tmp_path / f"init{suffix}").exists()
        out = capsys.readouterr().out
        assert out.startswith("recon_err=")

    def test_grid_aligned_weights_report_zero_error(self, tmp_path, capsys):
        # Rows span 0..15 times an exact power-of-two scale, so the
        # derived min/max grid hits every value exactly.
        w = 0.25 * np.array([[0.0, 5.0, 10.0, 15.0], [0.0, 3.0, 12.0, 15.0]])
        w_path = tmp_path / "w.vqt"
        x_path = tmp_path / "x.vqt"
        save_tensor(w, w_path)
        save_tensor(np.random.default_rng(1).normal(size=(4, 16)), x_path)
        code = main([
            "init", "--weights", str(w_path), "--calib", str(x_path),
            "--bits", "4", "--out-prefix", str(tmp_path / "o"),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(line.split("=")[1]) == pytest.approx(0.0, abs=1e-4)

    def test_outputs_match_with_the_pool_refused(self, tmp_path, large_layer_files, monkeypatch,
                                                 capsys):
        w_path, x_path = large_layer_files
        outputs = []
        for refused in (True, False):
            with monkeypatch.context() as m:
                if refused:
                    m.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
                    refuse_pool(m)
                else:
                    two_cores(m)
                calls = counted_submits(m)
                prefix = str(tmp_path / f"refused{refused}")
                assert main(["init", "--weights", w_path, "--calib", x_path,
                             "--out-prefix", prefix]) == 0
            printed = capsys.readouterr().out
            files = [(tmp_path / f"refused{refused}{suffix}").read_bytes()
                     for suffix in ("_wq.vqt", "_b.vqt", "_h.vqt", "_a.vqt")]
            outputs.append((files, printed, len(calls)))
        assert outputs[0][2] == 0 and outputs[1][2] == 8
        assert outputs[0][:2] == outputs[1][:2]

    def test_library_runs_on_the_main_thread(self, tmp_path, large_layer_files, monkeypatch):
        # Pool threads run plain numpy calls only, so a tracer that keeps
        # one span stack sees every library call on the main thread.
        w_path, x_path = large_layer_files
        two_cores(monkeypatch)
        seen = record_threads(monkeypatch)
        calls = counted_submits(monkeypatch)
        assert main(["init", "--weights", w_path, "--calib", x_path,
                     "--out-prefix", str(tmp_path / "o")]) == 0
        assert len(calls) == 8
        names = {name for name, _ in seen}
        assert {"curvature_init", "accumulate_hessian", "hessian_aware_init", "round_half_away",
                "submit", "save_tensor"} <= names
        assert all(thread is threading.main_thread() for _, thread in seen)

    def test_missing_file_exits_2(self, tmp_path, layer_files):
        _, x_path = layer_files
        code = main([
            "init", "--weights", str(tmp_path / "absent.vqt"), "--calib", x_path,
            "--out-prefix", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_bits_out_of_range_exits_4(self, tmp_path, layer_files):
        w_path, x_path = layer_files
        code = main([
            "init", "--weights", w_path, "--calib", x_path,
            "--bits", "1", "--out-prefix", str(tmp_path / "o"),
        ])
        assert code == 4

    def test_recon_err_is_the_product_norm(self, tmp_path, layer_files, capsys):
        w_path, x_path = layer_files
        code, _ = run_init(tmp_path, w_path, x_path)
        assert code == 0
        W = load_tensor(w_path).astype(np.float64)
        X = load_tensor(x_path).astype(np.float64)
        p = compute_quant_params(W, 4)
        w_q = curvature_init(W, X, p)[0].w_q
        printed = float(capsys.readouterr().out.strip().split("=")[1])
        assert printed == pytest.approx(np.linalg.norm((W - w_q) @ X), rel=1e-8)

    def test_overflowing_hessian_exits_4(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        w_path, x_path = tmp_path / "w.vqt", tmp_path / "x.vqt"
        save_tensor(rng.normal(size=(8, 8)), w_path)
        save_tensor(1e20 * rng.normal(size=(8, 16)), x_path)
        code, _ = run_init(tmp_path, str(w_path), str(x_path))
        assert code == 4
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--percdamp"])
    def test_nonpositive_hessian_setting_exits_4(self, tmp_path, layer_files, flag):
        w_path, x_path = layer_files
        code, _ = run_init(tmp_path, w_path, x_path, flag, "0")
        assert code == 4

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
    def test_non_finite_damping_exits_4(self, tmp_path, layer_files, capsys, value):
        w_path, x_path = layer_files
        code, _ = run_init(tmp_path, w_path, x_path, "--percdamp", value)
        assert code == 4
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "init_wq.vqt").exists()

    def test_shape_mismatch_exits_3(self, tmp_path, layer_files):
        w_path, _ = layer_files
        bad = tmp_path / "bad.vqt"
        save_tensor(np.zeros((5, 4)), bad)
        code = main([
            "init", "--weights", w_path, "--calib", str(bad),
            "--out-prefix", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_out_prefix_in_missing_directory_exits_2_before_running(self, tmp_path, layer_files,
                                                                    monkeypatch):
        def load_tensor(path):
            raise AssertionError("init read its inputs before checking the output prefix")

        monkeypatch.setattr(cli.tensor_io, "load_tensor", load_tensor)
        w_path, x_path = layer_files
        code = main(["init", "--weights", w_path, "--calib", x_path,
                     "--out-prefix", str(tmp_path / "missing" / "init")])
        assert code == 2


# sha256 of init's four files and its printed line on seeded layers: how
# the init copies, casts and saves its arrays must not change a byte. The
# first layer is above every split and lookahead gate, the second aligns
# with none. The Hessian, factor and sweep go through BLAS and LAPACK, so the
# figures are those of numpy 2.4's OpenBLAS 0.3.31 on x86-64; another
# BLAS may round them apart.
INIT_OUTPUTS = {
    (512, 768, 1024, 11): ("recon_err=1938.84225\n", {
        "_wq": "b72d8f35fc242357053faf5aaf71176ae549e094af7eba245125c44c36544b29",
        "_b": "36af4ed984b3809b1b8eb628a6d313a410b193c91f7d568dda64bc81d60d5d36",
        "_h": "15ad6d04d0ed2933a306f99c739565d6fd9644914a735e7548697f42f20018f9",
        "_a": "8a42d9afc7e8e0b48ffce829aa3979f36e9766f748881bfd0a2f98dd09e7dc3c",
    }),
    # Above the gates with 640 rows, which is no power of two times
    # recon_err's row chunk, so its sum tree meets halves of 320 and 160 rows.
    (640, 768, 1024, 13): ("recon_err=2181.19478\n", {
        "_wq": "2088d824f68309b7709de0c50df2e608f884b97639a255530d6fffb25a5cc1fa",
        "_b": "63a7606ac41603b3408f5ca3fdf8bec1e61fe6a2b9e0224053ae88c943b5aa66",
        "_h": "c93fade888b12dd2ec56c378d218ce5add7fc29ac6ca8d02cea5961167838aaa",
        "_a": "c3cee86cce9f0f0000d02a0fd5f94dd91e839aa4218b689b3fd8f403ac5278ee",
    }),
    (200, 300, 400, 12): ("recon_err=428.553376\n", {
        "_wq": "dee7bfb928094743a3d04fcafdf881fab953509cde84266fb1de5e22bea8b26d",
        "_b": "c5d29827e7d9f6ff4d976c24a3b05d2f1e626239be797489fb593a0005534088",
        "_h": "bad242e10757a0c4391e9caf84145e36669cf8756e55d63b6acc0f5303a62b70",
        "_a": "8aa59277d20adc2587b799ef3a70d7c98359468e856c053caf0606f9bf9660c6",
    }),
}


@pytest.mark.parametrize("layer", list(INIT_OUTPUTS), ids=lambda k: "x".join(map(str, k[:3])))
def test_init_outputs_are_pinned(tmp_path, capsys, layer):
    m, n, N, seed = layer
    rng = np.random.default_rng(seed)
    save_tensor(rng.normal(size=(m, n)), tmp_path / "w.vqt")
    save_tensor(rng.normal(size=(n, N)), tmp_path / "x.vqt")
    capsys.readouterr()
    code, prefix = run_init(tmp_path, str(tmp_path / "w.vqt"), str(tmp_path / "x.vqt"))
    assert code == 0
    printed, files = INIT_OUTPUTS[layer]
    assert capsys.readouterr().out == printed
    got = {suffix: hashlib.sha256((tmp_path / f"init{suffix}.vqt").read_bytes()).hexdigest()
           for suffix in files}
    assert got == files


def _printed(*argv) -> str:
    """Run the CLI, which must succeed, and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _hashes(d, inputs) -> dict:
    """sha256 of every file under ``d`` but the ``inputs``, by relative path."""
    return {str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.rglob("*")) if p.is_file() and p.name not in inputs}


def layer_chain(d, m, n, N, seed) -> tuple[dict, dict]:
    """init → vq of init's latent → blockwise optimize, from floor(W/s) and
    from init's base → analyze --budget of init's latent against the
    optimized codebook's, on a seeded m×n layer with N calibration columns.
    Returns each command's printed text and the sha256 of what it wrote."""
    rng = np.random.default_rng(seed)
    w, x, a = str(d / "w.vqt"), str(d / "x.vqt"), str(d / "init_a.vqt")
    save_tensor(rng.normal(size=(m, n)), w)
    save_tensor(rng.normal(size=(n, N)), x)
    printed = {
        "init": _printed("init", "--weights", w, "--calib", x, "--out-prefix", str(d / "init")),
        "vq": _printed("vq", "--latent", a, "--k", "16", "--iters", "10",
                       "--seed", str(seed), "--out", str(d / "cb")),
    }
    for name, base in (("opt", []), ("opt_base", ["--base", str(d / "init_b.vqt")])):
        printed[name] = _printed("optimize", "--mode", "blockwise", "--weights", w, "--calib", x,
                                 "--codebook", str(d / "cb"), *base, "--steps", "40",
                                 "--out", str(d / name), "--trace", str(d / f"{name}.csv"))
    approx = str(d / "approx.vqt")
    save_tensor(vq_reconstruct(load_codebook(str(d / "opt"), (m, n))), approx)
    printed["analyze"] = _printed("analyze", "--latent", a, "--approx", approx,
                                  "--report-dir", str(d / "reports"), "--budget", "512")
    return printed, _hashes(d, {"w.vqt", "x.vqt", "approx.vqt"})


def e2e_chain(d, dims, samples, seed) -> tuple[str, dict]:
    """``optimize --mode e2e`` on a seeded net; returns its printed text
    and the sha256 of what it wrote."""
    layers = [str(d / f"l{i}.vqt") for i in range(len(dims) - 1)]
    for layer, path in zip(random_net(dims, seed=seed).layers, layers):
        save_tensor(layer.weight, path)
    x = str(d / "x.vqt")
    save_tensor(np.random.default_rng(seed).normal(size=(dims[0], samples)), x)
    printed = _printed("optimize", "--mode", "e2e", "--layers", *layers, "--calib", x,
                       "--bits", "3", "--k", "64", "--kmeans-iters", "20", "--steps", "120",
                       "--seed", str(seed), "--out", str(d / "e2e"),
                       "--trace", str(d / "e2e.csv"))
    return printed, _hashes(d, {"x.vqt", *(os.path.basename(p) for p in layers)})


# sha256 of what the rest of the CLI chain writes, and its printed lines, on
# the seeded inputs of ``layer_chain`` and ``e2e_chain``: one layer aligned
# to the 128-column split gates and one aligned to none. How the chain's
# stages compute must not change a byte. The figures are those of numpy
# 2.4's OpenBLAS 0.3.31 on x86-64, as INIT_OUTPUTS's are.
CHAIN_OUTPUTS = {
    (256, 256, 512, 21): ({
        "init": "recon_err=549.119288\n",
        "vq": "wcss=204575.934\n",
        "opt": "initial_loss=800467.958\nfinal_loss=646055.523\nsteps=40\n",
        "opt_base": "initial_loss=527553.927\nfinal_loss=445797.529\nsteps=40\n",
        "analyze": ("vq: params=512 inf=4.41574688\n"
                    "lowrank: params=512 inf=4.67024606\n"
                    "kronecker: params=512 inf=4.43178345\n"
                    "clip_rate=0\n"),
    }, {
        "cb.centroids.vqt": "bdbf5d138050341dd326ec7156a81fdf9e84c1ffc2c5bc3beb2a643e0cd2e741",
        "cb.indices.u32": "7d50d8037e99e14f301bf32eaa9c88beb56ebedebfb822bdfe414b775e1b5794",
        "init_a.vqt": "552a5f23792a2283d8a740159c4ade329a982565416fdad4a2acef1e87f95739",
        "init_b.vqt": "13f1cbba2320473d28cc6e7672fda53025517cc6826877ff135df293223eebe9",
        "init_h.vqt": "d4f5c808731fed4d17dbfae00f44d192797292ab552b4b3d834777f8166dba05",
        "init_wq.vqt": "2d4b84264204a67dd57e2cfae54f4326ee7970cbb12c28e9d76c82866b70f54b",
        "opt.centroids.vqt": "43492f4f2453e010fb049863c0d5d0f6683136e64fd8cb38c89f3a6857462eb0",
        "opt.csv": "2f65786975d0b63f1414192cdc116896bbefacbf6b4d7bc923f53759b62e6d3c",
        "opt.indices.u32": "7d50d8037e99e14f301bf32eaa9c88beb56ebedebfb822bdfe414b775e1b5794",
        "opt_base.centroids.vqt": "9a5e51c1a0d1fe153411d0616d299fcdac93fb03deec2e236a1b182b6dbf9214",
        "opt_base.csv": "0e34ee11401641453d4cf028122b5abed7eec2dea21ab07a99f2e425fb38efe9",
        "opt_base.indices.u32": "7d50d8037e99e14f301bf32eaa9c88beb56ebedebfb822bdfe414b775e1b5794",
        "reports/histograms.csv": "f393e5181361ff1b55d43314a9cc8d7acd10b6f6f33bd9af77ef49dc8de21f6b",
        "reports/norms.csv": "1cf5817f435715401035f662ea240a4f3194dc907196a998e7dfa66242abdf5b",
        "reports/spectrum.csv": "f9c573c0f3111fc6beee6d1014e0fee116c45c14df5e46d16e400aac46f5fac7",
        "reports/theory.csv": "a26abb8b9d5318aeee7add8bc9c50c1c185df97455bda58c4c6f93fc079a5b5a",
    }),
    (200, 200, 400, 22): ({
        "init": "recon_err=367.532499\n",
        "vq": "wcss=125291.788\n",
        "opt": "initial_loss=359266.965\nfinal_loss=292450.875\nsteps=40\n",
        "opt_base": "initial_loss=234740.138\nfinal_loss=199493.183\nsteps=40\n",
        "analyze": ("vq: params=512 inf=4.4532342\n"
                    "lowrank: params=400 inf=4.62346874\n"
                    "kronecker: params=500 inf=4.80046359\n"
                    "clip_rate=0\n"),
    }, {
        "cb.centroids.vqt": "6edf255b43d02db342ae4818f38f1d67d0b37b3f50b93ea67f09798dfd50031d",
        "cb.indices.u32": "ef123258c8339b9f0b05a4a37f9222314b011d2980f9e10a03c6661bc1fb78fc",
        "init_a.vqt": "226d802a07bbac26efcca4d8df71b6c7cb83fe336a1fb67d9dcab5b77ed70404",
        "init_b.vqt": "feca3dd95f58174911210d46296d83c2d59bb8349789ed0373563d7c9cfa3ce1",
        "init_h.vqt": "fd5924accd3f08896674f460cf079ac7414afc4d31bfb334333cdf339e7fdd8e",
        "init_wq.vqt": "88ec8dee0d04a971e8337d359e9f139f4ec3cd8274a3a5f4365c254c249cf7dd",
        "opt.centroids.vqt": "5c11a0d359bca213bc9e8b52ff89f6cd95b7eedd74b2ad9e6199f8359b56eb7c",
        "opt.csv": "bd7f2875612349fed04eae0b2352b6ef9e8c7e7d8ca9e5559568cdbdfd8c5a54",
        "opt.indices.u32": "ef123258c8339b9f0b05a4a37f9222314b011d2980f9e10a03c6661bc1fb78fc",
        "opt_base.centroids.vqt": "94e4ec54a505d05956275bf862b2aa929dad3cb36d89039157185c74e1fd88cf",
        "opt_base.csv": "0fb4589c0e791dcc7729d1b4dca62bc0a65b48170f05b07539b8979d66962d61",
        "opt_base.indices.u32": "ef123258c8339b9f0b05a4a37f9222314b011d2980f9e10a03c6661bc1fb78fc",
        "reports/histograms.csv": "24bbdf41ee1f32f18024bc887439c90560eaf99872ab153bc93c63cf2575de27",
        "reports/norms.csv": "6d889c58889ab09df6771736f695f398188f5f8ad5663f6dc8628c296c5de948",
        "reports/spectrum.csv": "0a79cdae83f74b5f80d08f0f5fd3233753026468217d14e15381ca3f6fb6e005",
        "reports/theory.csv": "46f7f2a36fbd498d438fc31309c97aab9694685a525932b8c363a67e6018ee1f",
    }),
}
E2E_OUTPUTS = ("hard_kl_warmup_end=0.0152565119\nhard_kl_final=0.0117832743\nsteps=120\n", {
    "e2e.csv": "4547ee4042261fc7b85e43a3e45892b78f800095fa371d5d15c3b23b4515550b",
    "e2e_layer0.centroids.vqt": "1f22aa48a699a7df521c9e5309477beadaa4dd13a137e47d4943964ba2dac44b",
    "e2e_layer0.indices.u32": "277a110f8a17e44b9c9535146694909b0cdd9cceb6d64e39a2e85fa021ed115f",
    "e2e_layer1.centroids.vqt": "30103a6b5b7db8644fb3f31f9c09a4231c1844116d794c41de1fde282f8dbece",
    "e2e_layer1.indices.u32": "2cf030735e63625c2fdfe89e51b9b45b5574944ae5c6fbd7866ffd130ee8c7f7",
    "e2e_layer2.centroids.vqt": "033409071c62c62a234ff33eef251c4c1c2604f8a7efce43869ac7213df9ada1",
    "e2e_layer2.indices.u32": "07af4a8c1f7d1616127e2d93d6c44d6cd15a9fda50c6c7c3e637ebf4cfca9f24",
})


@pytest.mark.parametrize("layer", list(CHAIN_OUTPUTS), ids=lambda k: "x".join(map(str, k[:3])))
def test_layer_chain_outputs_are_pinned(tmp_path, layer):
    assert layer_chain(tmp_path, *layer) == CHAIN_OUTPUTS[layer]


def test_e2e_outputs_are_pinned(tmp_path):
    assert e2e_chain(tmp_path, (32, 64, 64, 8), 64, 23) == E2E_OUTPUTS


class TestVq:
    def test_exact_codebook_zero_wcss(self, tmp_path, capsys):
        a_path = tmp_path / "a.vqt"
        save_tensor(np.random.default_rng(2).normal(size=(4, 8)), a_path)
        code = main([
            "vq", "--latent", str(a_path), "--k", "8", "--d", "4",
            "--iters", "20", "--seed", "0", "--out", str(tmp_path / "cb"),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("wcss=")
        assert float(line.split("=")[1]) == pytest.approx(0.0, abs=1e-10)
        assert (tmp_path / "cb.centroids.vqt").exists()
        assert (tmp_path / "cb.indices.u32").exists()

    def test_out_in_missing_directory_exits_2_before_running(self, tmp_path, monkeypatch):
        def fit_codebook(*args, **kwargs):
            raise AssertionError("k-means ran before checking the output prefix")

        monkeypatch.setattr(cli, "fit_codebook", fit_codebook)
        a_path = tmp_path / "a.vqt"
        save_tensor(np.zeros((4, 8)), a_path)
        code = main(["vq", "--latent", str(a_path), "--k", "2", "--d", "4",
                     "--out", str(tmp_path / "missing" / "cb")])
        assert code == 2

    def test_indivisible_dimension_exits_3(self, tmp_path):
        a_path = tmp_path / "a.vqt"
        save_tensor(np.zeros((3, 3)), a_path)
        code = main([
            "vq", "--latent", str(a_path), "--k", "2", "--d", "4",
            "--out", str(tmp_path / "cb"),
        ])
        assert code == 3

    @pytest.mark.parametrize("d", ["0", "-4"])
    def test_non_positive_block_length_exits_4(self, tmp_path, d):
        a_path = tmp_path / "a.vqt"
        save_tensor(np.zeros((16, 16)), a_path)
        code = main([
            "vq", "--latent", str(a_path), "--k", "2", "--d", d,
            "--out", str(tmp_path / "cb"),
        ])
        assert code == 4

    def test_overflowing_distances_exit_4(self, tmp_path, monkeypatch, capsys):
        # A .vqt latent is float32, whose squares cannot overflow float64;
        # a float64 latent reaches the same check through the library.
        latent = np.random.default_rng(0).normal(size=(64, 4)) * 1e200
        monkeypatch.setattr(cli.tensor_io, "load_tensor", lambda path: latent)
        code = main([
            "vq", "--latent", "a.vqt", "--k", "4", "--d", "4",
            "--out", str(tmp_path / "cb"),
        ])
        assert code == 4
        assert "too large" in capsys.readouterr().err
        assert not (tmp_path / "cb.centroids.vqt").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        a_path = tmp_path / "a.vqt"
        save_tensor(np.random.default_rng(3).normal(size=(8, 8)), a_path)
        outs = []
        for name in ("cb1", "cb2"):
            main([
                "vq", "--latent", str(a_path), "--k", "4", "--d", "4",
                "--iters", "50", "--seed", "9", "--out", str(tmp_path / name),
            ])
            outs.append(
                (tmp_path / f"{name}.centroids.vqt").read_bytes()
                + (tmp_path / f"{name}.indices.u32").read_bytes()
            )
        assert outs[0] == outs[1]


class TestOptimize:
    def _prepare(self, tmp_path):
        rng = np.random.default_rng(4)
        w_path = tmp_path / "w.vqt"
        x_path = tmp_path / "x.vqt"
        save_tensor(rng.normal(size=(8, 8)), w_path)
        save_tensor(rng.normal(size=(8, 32)), x_path)
        prefix = str(tmp_path / "init")
        main(["init", "--weights", str(w_path), "--calib", str(x_path),
              "--bits", "4", "--out-prefix", prefix])
        cb_prefix = str(tmp_path / "cb")
        main(["vq", "--latent", f"{prefix}_a.vqt", "--k", "4", "--d", "4",
              "--iters", "20", "--seed", "0", "--out", cb_prefix])
        return str(w_path), str(x_path), cb_prefix

    def test_zero_steps_keeps_codebook_bytes(self, tmp_path):
        w_path, x_path, cb_prefix = self._prepare(tmp_path)
        out_prefix = str(tmp_path / "opt")
        code = main([
            "optimize", "--mode", "blockwise", "--weights", w_path,
            "--calib", x_path, "--bits", "4", "--codebook", cb_prefix,
            "--steps", "0", "--out", out_prefix,
        ])
        assert code == 0
        assert (
            (tmp_path / "cb.centroids.vqt").read_bytes()
            == (tmp_path / "opt.centroids.vqt").read_bytes()
        )
        assert (
            (tmp_path / "cb.indices.u32").read_bytes()
            == (tmp_path / "opt.indices.u32").read_bytes()
        )

    def test_blockwise_run_descends_and_writes_trace(self, tmp_path, capsys):
        w_path, x_path, cb_prefix = self._prepare(tmp_path)
        trace_path = tmp_path / "trace.csv"
        code = main([
            "optimize", "--mode", "blockwise", "--weights", w_path,
            "--calib", x_path, "--bits", "4", "--codebook", cb_prefix,
            "--steps", "60", "--lam", "0", "--seed", "0",
            "--out", str(tmp_path / "opt"), "--trace", str(trace_path),
        ])
        assert code == 0
        out = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["final_loss"]) < float(out["initial_loss"])
        rows = trace_path.read_text().splitlines()
        assert rows[0] == "step,loss"
        assert len(rows) == 61

    def _blockwise(self, tmp_path, *extra):
        w_path, x_path, cb_prefix = self._prepare(tmp_path)
        return main([
            "optimize", "--mode", "blockwise", "--weights", w_path,
            "--calib", x_path, "--bits", "4", "--codebook", cb_prefix,
            "--steps", "20", "--out", str(tmp_path / "opt"), *extra,
        ])

    @pytest.mark.parametrize("flag, value", [
        ("--k", "4"), ("--d", "4"), ("--kmeans-iters", "20"), ("--temperature", "1"),
        ("--layers", "a.vqt"),
    ])
    def test_blockwise_rejects_e2e_only_flag(self, tmp_path, capsys, flag, value):
        # Even a flag set to its e2e default is refused: blockwise mode
        # would ignore it.
        assert self._blockwise(tmp_path, flag, value) == 4
        err = capsys.readouterr().err
        assert flag in err
        assert not (tmp_path / "opt.centroids.vqt").exists()

    def test_blockwise_names_every_e2e_only_flag_given(self, tmp_path, capsys):
        code = self._blockwise(tmp_path, "--temperature", "9", "--k", "3", "--d", "2",
                               "--kmeans-iters", "1")
        assert code == 4
        err = capsys.readouterr().err
        for flag in ("--k", "--d", "--kmeans-iters", "--temperature"):
            assert flag in err

    @pytest.mark.parametrize("flag, value", [
        ("--lam", "nan"), ("--lr", "inf"), ("--beta-high", "inf"), ("--beta-low", "nan"),
        ("--lam", "-5"),
    ])
    def test_blockwise_rejects_bad_setting_before_running(self, tmp_path, capsys, flag, value):
        assert self._blockwise(tmp_path, flag, value) == 4
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "opt.centroids.vqt").exists()

    def _no_step(self, monkeypatch):
        def adam_step(*args):
            raise AssertionError("an optimizer step ran before --base was checked")

        monkeypatch.setattr(optim, "adam_step", adam_step)

    def test_blockwise_base_of_other_shape_exits_3_before_running(self, tmp_path, monkeypatch,
                                                                   capsys):
        base = tmp_path / "base.vqt"
        save_tensor(np.zeros((8, 4)), base)
        self._no_step(monkeypatch)
        assert self._blockwise(tmp_path, "--base", str(base)) == 3
        assert "base shape" in capsys.readouterr().err
        assert not (tmp_path / "opt.centroids.vqt").exists()

    def test_blockwise_non_integral_base_exits_4_before_running(self, tmp_path, monkeypatch,
                                                                 capsys):
        base = tmp_path / "base.vqt"
        save_tensor(np.full((8, 8), 0.5), base)
        self._no_step(monkeypatch)
        assert self._blockwise(tmp_path, "--base", str(base)) == 4
        assert "base must hold finite integers" in capsys.readouterr().err
        assert not (tmp_path / "opt.centroids.vqt").exists()

    def test_blockwise_trains_from_the_init_base(self, tmp_path):
        base_path = str(tmp_path / "init_b.vqt")
        assert self._blockwise(tmp_path, "--base", base_path) == 0
        W = load_tensor(str(tmp_path / "w.vqt"))
        X = load_tensor(str(tmp_path / "x.vqt"))
        cb = load_codebook(str(tmp_path / "cb"), W.shape)
        cfg = FinetuneConfig(steps=20)
        want, _ = optimize_blockwise(W, X, compute_quant_params(W, 4), cb, cfg,
                                     base=load_tensor(base_path))
        got = load_tensor(str(tmp_path / "opt.centroids.vqt"))
        assert got.tobytes() == want.centroids.astype(np.float32).tobytes()
        floor, _ = optimize_blockwise(W, X, compute_quant_params(W, 4), cb, cfg)
        assert not np.array_equal(floor.centroids, want.centroids)

    def test_e2e_rejects_base(self, tmp_path, capsys):
        l0, x_path = tmp_path / "l0.vqt", tmp_path / "x.vqt"
        save_tensor(np.ones((4, 8)), l0)
        save_tensor(np.ones((8, 2)), x_path)
        code = main(["optimize", "--mode", "e2e", "--layers", str(l0), "--calib", str(x_path),
                     "--base", str(l0), "--out", str(tmp_path / "e2e")])
        assert code == 4
        assert "--base" in capsys.readouterr().err

    def test_e2e_rejects_blockwise_inputs_before_loading(self, tmp_path, monkeypatch, capsys):
        l0, x_path = tmp_path / "l0.vqt", tmp_path / "x.vqt"
        save_tensor(np.ones((4, 8)), l0)
        save_tensor(np.ones((8, 2)), x_path)

        def load_tensor(path):
            raise AssertionError(f"{path} was loaded before the flags were checked")

        monkeypatch.setattr(cli.tensor_io, "load_tensor", load_tensor)
        code = main(["optimize", "--mode", "e2e", "--layers", str(l0), "--calib", str(x_path),
                     "--k", "4", "--d", "4", "--steps", "2",
                     "--weights", "no-such-file.vqt", "--codebook", "no-such-prefix",
                     "--out", str(tmp_path / "e2e")])
        assert code == 4
        err = capsys.readouterr().err
        assert "--weights" in err and "--codebook" in err
        assert not list(tmp_path.glob("e2e_layer0.*"))

    def test_e2e_rejects_infinite_temperature(self, tmp_path, capsys):
        l0, x_path = tmp_path / "l0.vqt", tmp_path / "x.vqt"
        save_tensor(np.ones((4, 8)), l0)
        save_tensor(np.ones((8, 2)), x_path)
        code = main(["optimize", "--mode", "e2e", "--layers", str(l0), "--calib", str(x_path),
                     "--k", "4", "--d", "4", "--temperature", "inf",
                     "--out", str(tmp_path / "e2e")])
        assert code == 4
        assert "temperature must be finite" in capsys.readouterr().err
        assert not (tmp_path / "e2e_layer0.centroids.vqt").exists()

    def test_blockwise_does_not_read_seed(self, tmp_path):
        assert self._blockwise(tmp_path, "--seed", "0") == 0
        first = (tmp_path / "opt.centroids.vqt").read_bytes()
        assert self._blockwise(tmp_path, "--seed", "7") == 0
        assert (tmp_path / "opt.centroids.vqt").read_bytes() == first

    def test_e2e_fills_in_omitted_flags(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        seen = {}

        def build_student(teacher, bits, k, d, kmeans_iters, seed):
            seen.update(k=k, d=d, kmeans_iters=kmeans_iters)

        def e2e_finetune(teacher, student, data, cfg):
            seen["temperature"] = cfg.temperature
            raise Stop

        monkeypatch.setattr(cli, "build_student", build_student)
        monkeypatch.setattr(cli, "e2e_finetune", e2e_finetune)
        l0, x_path = tmp_path / "l0.vqt", tmp_path / "x.vqt"
        save_tensor(np.ones((4, 6)), l0)
        save_tensor(np.ones((6, 2)), x_path)
        with pytest.raises(Stop):
            main(["optimize", "--mode", "e2e", "--layers", str(l0), "--calib", str(x_path),
                  "--out", str(tmp_path / "e2e")])
        assert seen == {"k": 4096, "d": 8, "kmeans_iters": 100, "temperature": 1.0}

    def test_blockwise_trace_into_missing_directory_exits_2_before_running(self, tmp_path):
        code = self._blockwise(tmp_path, "--trace", str(tmp_path / "missing" / "t.csv"))
        assert code == 2
        assert not (tmp_path / "opt.centroids.vqt").exists()
        assert not (tmp_path / "opt.indices.u32").exists()

    def test_e2e_trace_into_missing_directory_exits_2_before_running(self, tmp_path,
                                                                     monkeypatch):
        def build_student(*args, **kwargs):
            raise AssertionError("e2e mode ran before checking the trace path")

        monkeypatch.setattr(cli, "build_student", build_student)
        l0, x_path = tmp_path / "l0.vqt", tmp_path / "x.vqt"
        save_tensor(np.ones((4, 8)), l0)
        save_tensor(np.ones((8, 2)), x_path)
        code = main(["optimize", "--mode", "e2e", "--layers", str(l0), "--calib", str(x_path),
                     "--k", "4", "--d", "4", "--out", str(tmp_path / "e2e"),
                     "--trace", str(tmp_path / "missing" / "t.csv")])
        assert code == 2
        assert not (tmp_path / "e2e_layer0.centroids.vqt").exists()

    def test_blockwise_out_in_missing_directory_exits_2_before_running(self, tmp_path,
                                                                       monkeypatch):
        def optimize_blockwise(*args, **kwargs):
            raise AssertionError("blockwise mode ran before checking the output prefix")

        w_path, x_path, cb_prefix = self._prepare(tmp_path)
        monkeypatch.setattr(cli, "optimize_blockwise", optimize_blockwise)
        code = main(["optimize", "--mode", "blockwise", "--weights", w_path,
                     "--calib", x_path, "--bits", "4", "--codebook", cb_prefix,
                     "--steps", "20", "--out", str(tmp_path / "missing" / "opt")])
        assert code == 2

    def test_trace_naming_a_directory_exits_2_before_running(self, tmp_path):
        (tmp_path / "t").mkdir()
        assert self._blockwise(tmp_path, "--trace", str(tmp_path / "t")) == 2
        assert not (tmp_path / "opt.centroids.vqt").exists()
        assert not (tmp_path / "opt.indices.u32").exists()

    @pytest.mark.parametrize("d", ["0", "-4"])
    def test_e2e_non_positive_block_length_exits_4(self, tmp_path, d):
        rng = np.random.default_rng(12)
        l0, l1, x_path = tmp_path / "l0.vqt", tmp_path / "l1.vqt", tmp_path / "x.vqt"
        save_tensor(rng.normal(size=(16, 16)), l0)
        save_tensor(rng.normal(size=(8, 16)), l1)
        save_tensor(rng.normal(size=(16, 4)), x_path)
        code = main(["optimize", "--mode", "e2e", "--layers", str(l0), str(l1),
                     "--calib", str(x_path), "--k", "4", "--d", d, "--steps", "2",
                     "--out", str(tmp_path / "e2e")])
        assert code == 4

    def test_unknown_mode_exits_1(self, tmp_path):
        code = main(["optimize", "--mode", "sideways", "--calib", "x", "--out", "o"])
        assert code == 1

    def test_e2e_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        l0, l1 = tmp_path / "l0.vqt", tmp_path / "l1.vqt"
        save_tensor(rng.normal(size=(8, 6)) / np.sqrt(6), l0)
        save_tensor(rng.normal(size=(3, 8)) / np.sqrt(8), l1)
        x_path = tmp_path / "x.vqt"
        save_tensor(rng.normal(size=(6, 32)), x_path)
        code = main([
            "optimize", "--mode", "e2e", "--layers", str(l0), str(l1),
            "--calib", str(x_path), "--bits", "3", "--k", "8", "--d", "4",
            "--kmeans-iters", "20", "--steps", "40", "--seed", "0",
            "--out", str(tmp_path / "e2e"), "--trace", str(tmp_path / "e2e.csv"),
        ])
        assert code == 0
        assert (tmp_path / "e2e_layer0.centroids.vqt").exists()
        assert (tmp_path / "e2e_layer1.centroids.vqt").exists()
        out = capsys.readouterr().out
        assert "hard_kl_final=" in out


class TestAnalyze:
    def test_emits_three_reports(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(16, 16))
        a_path, t_path = tmp_path / "a.vqt", tmp_path / "at.vqt"
        save_tensor(A, a_path)
        save_tensor(A + 0.1 * rng.normal(size=A.shape), t_path)
        report_dir = tmp_path / "reports"
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(t_path),
            "--report-dir", str(report_dir),
        ])
        assert code == 0
        produced = sorted(p.name for p in report_dir.iterdir())
        assert produced == ["histograms.csv", "spectrum.csv", "theory.csv"]
        assert "clip_rate=" in capsys.readouterr().out

    def test_identical_inputs_zero_clip_rate(self, tmp_path, capsys):
        A = np.random.default_rng(7).normal(size=(8, 8))
        a_path = tmp_path / "a.vqt"
        save_tensor(A, a_path)
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(a_path),
            "--report-dir", str(tmp_path / "r"),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(line.split("=")[1]) == 0.0

    def test_theory_csv_matches_report(self, tmp_path):
        rng = np.random.default_rng(10)
        A = 2.0 * rng.normal(size=(16, 16))
        a_path, t_path = tmp_path / "a.vqt", tmp_path / "at.vqt"
        save_tensor(A, a_path)
        save_tensor(A + 0.5 * rng.normal(size=A.shape), t_path)
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(t_path),
            "--report-dir", str(tmp_path / "r"),
        ])
        assert code == 0
        with open(tmp_path / "r" / "theory.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        rep = analysis.theory_report(load_tensor(a_path), load_tensor(t_path))
        assert 0.0 < rep.clip_rate and 0.0 < rep.tail_lhs[0]
        want = {
            "epsilon": rep.epsilon_grid,
            "tail_lhs": rep.tail_lhs,
            "tail_rhs": rep.tail_rhs,
            "lipschitz_L": [rep.lipschitz_L] * len(rows),
            "max_ratio": [rep.max_observed_ratio] * len(rows),
            "clip_rate": [rep.clip_rate] * len(rows),
            "clip_bound": [rep.clip_bound] * len(rows),
        }
        assert list(rows[0]) == list(want)
        for column, values in want.items():
            assert [row[column] for row in rows] == [format(v, "#.9g") for v in values]

    def test_injected_rounding_violation_exits_5(self, tmp_path, monkeypatch, capsys):
        # A faulty transform with slope 10 everywhere breaks the
        # contraction bound that the checks assert for the latent shift.
        A = np.random.default_rng(8).normal(size=(4, 4))
        a_path, t_path = tmp_path / "a.vqt", tmp_path / "at.vqt"
        save_tensor(A, a_path)
        save_tensor(A + 0.01, t_path)
        monkeypatch.setattr(analysis, "rectified_sigmoid",
                            lambda A: 10.0 * np.asarray(A, dtype=np.float64))
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(t_path),
            "--report-dir", str(tmp_path / "r"),
        ])
        assert code == 5
        assert "exceeds contraction constant" in capsys.readouterr().err

    def test_budget_comparison_emits_norms(self, tmp_path, capsys):
        A = np.random.default_rng(9).normal(size=(16, 16))
        a_path = tmp_path / "a.vqt"
        save_tensor(A, a_path)
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(a_path),
            "--report-dir", str(tmp_path / "r"), "--budget", "64",
        ])
        assert code == 0
        assert (tmp_path / "r" / "norms.csv").exists()
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()[:3]] == ["vq", "lowrank", "kronecker"]

    @pytest.mark.parametrize("budget", ["1", "40"])
    def test_infeasible_budget_exits_4_before_any_fit_or_report(self, tmp_path, monkeypatch,
                                                                 budget):
        # Budget 1 fits no method; budget 40 fits a vq codebook (k=5) but
        # no rank on 64x96, so no method may be fitted and no report written.
        A = np.random.default_rng(11).normal(size=(64, 96))
        a_path = tmp_path / "a.vqt"
        save_tensor(A, a_path)
        fits = []
        monkeypatch.setattr(analysis, "kmeans_fit", lambda *a, **kw: fits.append(a))
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(a_path),
            "--report-dir", str(tmp_path / "r"), "--budget", budget,
        ])
        assert code == 4
        assert fits == []
        assert not (tmp_path / "r").exists()

    def test_seed_without_budget_exits_4_before_loading(self, tmp_path, capsys):
        # Only the budget comparison draws random numbers; the latent
        # named here does not exist, so exit 4 means nothing was read.
        code = main([
            "analyze", "--latent", str(tmp_path / "missing.vqt"),
            "--approx", str(tmp_path / "missing.vqt"),
            "--report-dir", str(tmp_path / "r"), "--seed", "5",
        ])
        assert code == 4
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_budget_without_seed_uses_seed_0(self, tmp_path, monkeypatch):
        A = np.random.default_rng(9).normal(size=(16, 16))
        a_path = tmp_path / "a.vqt"
        save_tensor(A, a_path)
        seeds = []
        approximations = analysis.budgeted_approximations

        def recording_approximations(*args, seed):
            seeds.append(seed)
            return approximations(*args, seed=seed)

        monkeypatch.setattr(analysis, "budgeted_approximations", recording_approximations)
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(a_path),
            "--report-dir", str(tmp_path / "r"), "--budget", "64",
        ])
        assert code == 0
        assert seeds == [0]

    def test_report_dir_under_a_file_exits_2_before_any_fit(self, tmp_path, monkeypatch,
                                                            capsys):
        A = np.random.default_rng(11).normal(size=(64, 96))
        a_path = tmp_path / "a.vqt"
        save_tensor(A, a_path)
        (tmp_path / "file").write_text("")
        fits = []
        monkeypatch.setattr(analysis, "kmeans_fit", lambda *a, **kw: fits.append(a))
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(a_path),
            "--report-dir", str(tmp_path / "file" / "sub" / "r"), "--budget", "1024",
        ])
        assert code == 2
        assert fits == []
        assert "is not a directory" in capsys.readouterr().err

    def test_report_dir_with_missing_parents_is_created(self, tmp_path):
        A = np.random.default_rng(7).normal(size=(8, 8))
        a_path = tmp_path / "a.vqt"
        save_tensor(A, a_path)
        report_dir = tmp_path / "new" / "deeper" / "r"
        code = main([
            "analyze", "--latent", str(a_path), "--approx", str(a_path),
            "--report-dir", str(report_dir),
        ])
        assert code == 0
        assert (report_dir / "theory.csv").exists()


class TestUsage:
    def test_no_command_exits_1(self):
        assert main([]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1
