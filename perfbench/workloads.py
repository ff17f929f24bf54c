"""The benchmark's four workloads: seeded inputs, CLI stages, output checks.

Each workload writes the inputs of one repetition as ``.vqt`` files
under ``<rep>/in``, drawn from ``(seed, index)`` so that a seed fixes the
whole sequence of inputs,
lists the steps of one repetition (``vqround.cli.main`` argument lists,
plus the odd harness step between stages), and checks every output the
steps leave under ``<rep>/out`` through vqround's public functions.
Every step and every check is one operation; a failed one counts
against ``failed_frac``.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from vqround import analysis, reparam, tensor_io
from vqround.errors import VqRoundError
from vqround.distill import Layer, TinyNet, forward_logits, kl_loss, random_net
from vqround.hessian import residual_init
from vqround.optim import FinetuneConfig, blockwise_loss
from vqround.quantize import (
    RoundingSpec,
    adaptive_quantize,
    compute_quant_params,
    hard_round,
    inverse_rectified_sigmoid,
    rectified_sigmoid,
    rtn_quantize,
)
from vqround.reparam import flatten_blocks, load_codebook, vq_reconstruct, wcss

BITS = 3
# Relative tolerance between a value the CLI printed (9 significant
# digits, computed in float64) and the same value recomputed from the
# float32 files it saved.
PRINTED_RTOL = 1e-5


class Checks:
    """Records the outcome of every operation of one repetition."""

    def __init__(self):
        self.ops: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name: str, got: float, want: float, rtol: float = PRINTED_RTOL) -> bool:
        ok = bool(np.isfinite(got)) and abs(got - want) <= rtol * max(abs(want), 1e-300)
        return self.record(name, ok, f"got {got!r}, want {want!r}, rtol {rtol}")

    def tensor(self, path: str):
        """Load a ``.vqt`` output; ``load_tensor`` rejects NaN/Inf itself."""
        try:
            arr = tensor_io.load_tensor(path).astype(np.float64)
        except (OSError, VqRoundError) as exc:
            self.record(f"parse {os.path.basename(path)}", False, str(exc))
            return None
        self.record(f"parse {os.path.basename(path)}", True)
        return arr

    def codebook(self, prefix: str, shape: tuple[int, int], k: int):
        """Load a codebook; its k centroids' indices must cover every block."""
        base = os.path.basename(prefix)
        centroids = self.tensor(f"{prefix}.centroids.vqt")
        try:
            raw = tensor_io.load_indices_u32(f"{prefix}.indices.u32")
        except (OSError, VqRoundError) as exc:
            self.record(f"parse {base}.indices.u32", False, str(exc))
            return None
        self.record(f"parse {base}.indices.u32", True)
        if centroids is None:
            return None
        blocks = shape[0] * shape[1] // centroids.shape[1]
        ok = centroids.shape[0] == k and raw.size == blocks > 0 and raw.max() < k
        if not self.record(f"indices {base}", ok, f"{raw.size} of {blocks} indices, k {k}"):
            return None
        return load_codebook(prefix, shape)

    def csv_file(self, path: str) -> list[list[float]] | None:
        """Parse a report CSV; every cell must be a finite number."""
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            values = [[float(v) for v in row] for row in rows[1:]]
            ok = len(values) > 0 and all(np.isfinite(v).all() for v in values)
        except (OSError, ValueError) as exc:
            self.record(f"parse {os.path.basename(path)}", False, str(exc))
            return None
        self.record(f"parse {os.path.basename(path)}", ok)
        return values if ok else None

    def on_grid(self, name: str, W, p, w_q) -> None:
        """Dequantized weights sit on the per-row integer grid [0, q_max]."""
        q = w_q / p.scale[:, None] + p.zero[:, None]
        err = np.abs(q - np.round(q))
        ok = err.max() <= 1e-3 and q.min() > -1e-3 and q.max() < p.q_max + 1e-3
        self.record(name, ok, f"max off-grid {err.max():.3g}")


def live_frac(latent) -> float:
    """Share of latent entries whose rounding value has a nonzero sigmoid slope."""
    return float(np.mean(analysis.margins(latent) > 0.0))


def residual_latent(W) -> np.ndarray:
    """Latent preimage of the floor-residual rounding seed."""
    return inverse_rectified_sigmoid(residual_init(W, compute_quant_params(W, BITS)))


def hardened_weights(cb, W, p, checks: Checks, name: str) -> np.ndarray:
    """Harden a codebook's decisions; check they are binary and integral."""
    H = hard_round(rectified_sigmoid(vq_reconstruct(cb)))
    Q, what = adaptive_quantize(W, p, H)
    ok = np.all((H == 0.0) | (H == 1.0)) and np.array_equal(Q, np.round(Q))
    checks.record(name, ok)
    return what


def _path(d, *parts):
    return os.path.join(d, *parts)


class Workload:
    name: str
    why: str
    # The quality figures are averaged over this many distinct inputs,
    # because one draw of a small problem varies too much between seeds.
    quality_inputs = 1

    def live(self, d, kept) -> dict:
        """Live-entry fractions of what the stages received, for a traced run."""
        return {}


class Layer256(Workload):
    name = "layer-256"
    why = ("init, vq, blockwise optimize and analyze on one 256x256 layer; "
           "the optimizer's (W-What)X products dominate")
    n, samples, k, d, vq_iters, opt_steps = 256, 1024, 256, 8, 25, 300

    def make_inputs(self, seed, index, d):
        rng = np.random.default_rng([seed, index, 256])
        W = rng.normal(size=(self.n, self.n))
        X = rng.normal(size=(self.n, self.samples))
        tensor_io.save_tensor(W, _path(d, "in", "w.vqt"))
        tensor_io.save_tensor(X, _path(d, "in", "x.vqt"))
        # The curvature seed is saturated at 3 bits, so vq and optimize
        # start from the floor-residual seed, as scripts/run_pipeline.py does.
        tensor_io.save_tensor(residual_latent(tensor_io.load_tensor(_path(d, "in", "w.vqt"))),
                              _path(d, "in", "resid_a.vqt"))

    def steps(self, seed, d):
        w, x, a = _path(d, "in", "w.vqt"), _path(d, "in", "x.vqt"), _path(d, "in", "resid_a.vqt")
        out = _path(d, "out")

        def write_approx():
            # Module attributes, so a traced run sees these calls.
            cb = reparam.load_codebook(_path(out, "opt"), (self.n, self.n))
            tensor_io.save_tensor(reparam.vq_reconstruct(cb), _path(out, "approx.vqt"))

        return [
            ("init", ["init", "--weights", w, "--calib", x, "--bits", str(BITS),
                      "--out-prefix", _path(out, "init")]),
            ("vq", ["vq", "--latent", a, "--k", str(self.k), "--d", str(self.d),
                    "--iters", str(self.vq_iters), "--seed", str(seed), "--out", _path(out, "cb")]),
            ("optimize", ["optimize", "--mode", "blockwise", "--weights", w, "--calib", x,
                          "--bits", str(BITS), "--codebook", _path(out, "cb"),
                          "--steps", str(self.opt_steps), "--seed", str(seed),
                          "--out", _path(out, "opt"), "--trace", _path(out, "opt_trace.csv")]),
            ("approx", write_approx),
            ("analyze", ["analyze", "--latent", a, "--approx", _path(out, "approx.vqt"),
                         "--report-dir", _path(out, "reports")]),
        ]

    def check(self, d, printed, checks: Checks, quality: bool) -> dict:
        out = _path(d, "out")
        W = tensor_io.load_tensor(_path(d, "in", "w.vqt")).astype(np.float64)
        X = tensor_io.load_tensor(_path(d, "in", "x.vqt")).astype(np.float64)
        A = tensor_io.load_tensor(_path(d, "in", "resid_a.vqt")).astype(np.float64)
        p = compute_quant_params(W, BITS)
        shape = W.shape

        w_q = checks.tensor(_path(out, "init_wq.vqt"))
        base = checks.tensor(_path(out, "init_b.vqt"))
        h = checks.tensor(_path(out, "init_h.vqt"))
        checks.tensor(_path(out, "init_a.vqt"))
        checks.tensor(_path(out, "approx.vqt"))
        for name in ("theory.csv", "histograms.csv", "spectrum.csv"):
            checks.csv_file(_path(out, "reports", name))
        trace = checks.csv_file(_path(out, "opt_trace.csv"))
        cb = checks.codebook(_path(out, "cb"), shape, self.k)
        opt = checks.codebook(_path(out, "opt"), shape, self.k)

        if w_q is not None:
            checks.on_grid("grid init_wq", W, p, w_q)
            checks.close("recompute recon_err", float(np.linalg.norm((W - w_q) @ X)),
                         printed.get("recon_err", np.nan))
        if base is not None:
            checks.record("integral init_b", np.array_equal(base, np.floor(base)))
        if h is not None:
            checks.record("range init_h", h.min() >= 0.0 and h.max() <= 1.0)
        if cb is not None:
            checks.close("recompute wcss", wcss(flatten_blocks(A, self.d), cb.centroids, cb.indices),
                         printed.get("wcss", np.nan))
        if cb is not None and opt is not None:
            checks.record("indices frozen", np.array_equal(cb.indices, opt.indices))
        final, initial = printed.get("final_loss", np.nan), printed.get("initial_loss", np.nan)
        if trace is not None:
            checks.close("trace final_loss", trace[-1][1], final, rtol=1e-8)
        checks.record("final_loss < initial_loss", final < initial, f"{final} vs {initial}")

        result = {}
        if opt is not None:
            what = hardened_weights(opt, W, p, checks, "binary opt")
            # The printed loss is taken before the last Adam update and the
            # saved centroids are float32, so the recomputed loss agrees
            # only to a looser tolerance.
            cfg = FinetuneConfig()
            checks.close("recompute final_loss",
                         blockwise_loss(W, X, p, opt, lam=cfg.lam, beta=cfg.beta_low),
                         final, rtol=0.02)
            if quality:
                _, w_rtn = rtn_quantize(W, p)
                hard_err = float(np.sum(((W - what) @ X) ** 2))
                result["hard_err_ratio"] = hard_err / float(np.sum(((W - w_rtn) @ X) ** 2))
        result["init_recon_err"] = printed.get("recon_err", np.nan)
        result["wcss"] = printed.get("wcss", np.nan)
        result["quality_ratio"] = result.get("hard_err_ratio", np.nan)
        return result

    def live(self, d, kept) -> dict:
        cb = load_codebook(_path(d, "out", "cb"), (self.n, self.n))
        h = tensor_io.load_tensor(_path(d, "out", "init_h.vqt"))
        return {"optim.live_frac": live_frac(vq_reconstruct(cb)),
                "hessian.seed_live_frac": live_frac(inverse_rectified_sigmoid(h))}


class Vq512(Workload):
    name = "vq-512"
    why = ("k-means at the paper's k=4096, d=8 on a 512x512 residual-seed latent; "
           "++ seeding and the L x k distance matrix dominate")
    n, k, d, iters = 512, 4096, 8, 2

    def make_inputs(self, seed, index, d):
        rng = np.random.default_rng([seed, index, 512])
        W = rng.normal(size=(self.n, self.n))
        tensor_io.save_tensor(residual_latent(W), _path(d, "in", "a.vqt"))

    def steps(self, seed, d):
        return [("vq", ["vq", "--latent", _path(d, "in", "a.vqt"), "--k", str(self.k),
                        "--d", str(self.d), "--iters", str(self.iters), "--seed", str(seed),
                        "--out", _path(d, "out", "cb")])]

    def check(self, d, printed, checks: Checks, quality: bool) -> dict:
        A = tensor_io.load_tensor(_path(d, "in", "a.vqt")).astype(np.float64)
        blocks = flatten_blocks(A, self.d)
        cb = checks.codebook(_path(d, "out", "cb"), A.shape, self.k)
        result = {"wcss": printed.get("wcss", np.nan)}
        if cb is not None:
            checks.close("recompute wcss", wcss(blocks, cb.centroids, cb.indices), result["wcss"])
        total = float(np.sum((blocks - blocks.mean(axis=0)) ** 2))
        result["quality_ratio"] = result["wcss"] / total
        return result


class E2EToy(Workload):
    name = "e2e-toy"
    why = ("e2e distillation of a 64-128-128-16 toy net, batch 1; thousands of "
           "small-matrix calls, so per-call overhead dominates, not BLAS")
    dims, samples, k, d, opt_steps = (64, 128, 128, 16), 256, 256, 8, 250
    # One input's quality ratio varies ~15% between teachers.
    quality_inputs = 16

    def make_inputs(self, seed, index, d):
        teacher = random_net(self.dims, seed=np.random.default_rng([seed, index, 128]).integers(2**32))
        for i, layer in enumerate(teacher.layers):
            tensor_io.save_tensor(layer.weight, _path(d, "in", f"l{i}.vqt"))
        X = np.random.default_rng([seed, index, 64]).normal(size=(self.dims[0], self.samples))
        tensor_io.save_tensor(X, _path(d, "in", "x.vqt"))

    def _layers(self, d):
        return [_path(d, "in", f"l{i}.vqt") for i in range(len(self.dims) - 1)]

    def steps(self, seed, d):
        return [("optimize", ["optimize", "--mode", "e2e", "--layers", *self._layers(d),
                              "--calib", _path(d, "in", "x.vqt"), "--bits", str(BITS),
                              "--k", str(self.k), "--d", str(self.d), "--steps", str(self.opt_steps),
                              "--seed", str(seed), "--out", _path(d, "out", "e2e"),
                              "--trace", _path(d, "out", "e2e_trace.csv")])]

    def check(self, d, printed, checks: Checks, quality: bool) -> dict:
        weights = [tensor_io.load_tensor(path).astype(np.float64) for path in self._layers(d)]
        X = tensor_io.load_tensor(_path(d, "in", "x.vqt")).astype(np.float64)
        teacher = TinyNet(layers=[Layer(weight=w) for w in weights])
        checks.csv_file(_path(d, "out", "e2e_trace.csv"))
        student, rtn = [], []
        for i, W in enumerate(weights):
            p = compute_quant_params(W, BITS)
            rtn.append(Layer(weight=rtn_quantize(W, p)[1]))
            k = min(self.k, W.size // self.d)
            cb = checks.codebook(_path(d, "out", f"e2e_layer{i}"), W.shape, k)
            if cb is None or student is None:
                student = None
                continue
            hardened_weights(cb, W, p, checks, f"binary layer{i}")
            student.append(Layer(weight=W, params=p, codebook=cb))
        result = {"hard_kl_final": printed.get("hard_kl_final", np.nan)}
        y_t = forward_logits(teacher, X)
        if student is not None:
            y_s = forward_logits(TinyNet(layers=student), X, RoundingSpec(), mode="hard")
            checks.close("recompute hard_kl_final", kl_loss(y_s.T, y_t.T), result["hard_kl_final"])
        if quality:
            rtn_kl = kl_loss(forward_logits(TinyNet(layers=rtn), X).T, y_t.T)
            result["quality_ratio"] = result["hard_kl_final"] / rtn_kl
        return result

    def live(self, d, kept) -> dict:
        student = kept.get("distill.build_student")
        if not student:
            return {}
        return {"optim.live_frac": float(np.mean(np.concatenate(
            [(analysis.margins(vq_reconstruct(cb)) > 0.0).ravel() for cb in student])))}


class Init2048(Workload):
    name = "init-2048"
    why = ("curvature init alone on the paper's 2048x2048 layer with N=4096; "
           "the only workload where hessian and tensor_io dominate")
    n, samples = 2048, 4096

    def make_inputs(self, seed, index, d):
        rng = np.random.default_rng([seed, index, 2048])
        tensor_io.save_tensor(rng.normal(size=(self.n, self.n)), _path(d, "in", "w.vqt"))
        tensor_io.save_tensor(rng.normal(size=(self.n, self.samples)), _path(d, "in", "x.vqt"))

    def steps(self, seed, d):
        return [("init", ["init", "--weights", _path(d, "in", "w.vqt"),
                          "--calib", _path(d, "in", "x.vqt"), "--bits", str(BITS),
                          "--out-prefix", _path(d, "out", "init")])]

    def check(self, d, printed, checks: Checks, quality: bool) -> dict:
        out = _path(d, "out")
        W = tensor_io.load_tensor(_path(d, "in", "w.vqt")).astype(np.float64)
        X = tensor_io.load_tensor(_path(d, "in", "x.vqt")).astype(np.float64)
        p = compute_quant_params(W, BITS)
        w_q = checks.tensor(_path(out, "init_wq.vqt"))
        base = checks.tensor(_path(out, "init_b.vqt"))
        h = checks.tensor(_path(out, "init_h.vqt"))
        checks.tensor(_path(out, "init_a.vqt"))
        result = {"init_recon_err": printed.get("recon_err", np.nan)}
        if w_q is not None:
            checks.on_grid("grid init_wq", W, p, w_q)
            checks.close("recompute recon_err", float(np.linalg.norm((W - w_q) @ X)),
                         result["init_recon_err"])
        if base is not None:
            checks.record("integral init_b", np.array_equal(base, np.floor(base)))
        if h is not None:
            checks.record("range init_h", h.min() >= 0.0 and h.max() <= 1.0)
        if quality:
            _, w_rtn = rtn_quantize(W, p)
            result["quality_ratio"] = result["init_recon_err"] / float(np.linalg.norm((W - w_rtn) @ X))
        return result

    def live(self, d, kept) -> dict:
        h = tensor_io.load_tensor(_path(d, "out", "init_h.vqt"))
        return {"hessian.seed_live_frac": live_frac(inverse_rectified_sigmoid(h))}


WORKLOADS = {w.name: w for w in (Layer256(), Vq512(), E2EToy(), Init2048())}
