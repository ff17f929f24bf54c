"""Acceptance suite: seeded desk-scale runs and property sweeps, one
test per criterion with pinned tolerances.

Run `pytest tests/test_acceptance.py -v -s` for one pass line per
criterion.
"""

import time

import numpy as np
import pytest

from test_distill import fd_check_e2e
from test_optim import fd_check_blockwise

from vqround.analysis import clipping_check, compare_methods, margins, tail_transfer
from vqround.distill import build_student, e2e_finetune, random_net
from vqround.hessian import curvature_init, residual_init
from vqround.optim import FinetuneConfig, optimize_blockwise, warmup_steps
from vqround.quantize import (
    GAMMA,
    ZETA,
    adaptive_quantize,
    compute_quant_params,
    hard_round,
    inverse_rectified_sigmoid,
    rectified_sigmoid,
    rtn_quantize,
)
from vqround.reparam import (
    fit_codebook,
    kmeans_fit,
    param_count,
    rearrange,
    svd_lowrank,
    vq_assign,
    vq_reconstruct,
    wcss,
)

L_CONST = 0.3
N_SAMPLES = 10**5
SIGMAS = (0.1, 1.0, 10.0)


def ok(line: str) -> None:
    print(f"acceptance {line}: PASS")


@pytest.fixture(scope="module")
def gaussian_pairs():
    """One latent pair per noise scale, 1e5 entries each, fixed seeds."""
    pairs = {}
    for i, sigma in enumerate(SIGMAS):
        rng = np.random.default_rng(i)
        A = sigma * rng.normal(size=N_SAMPLES)
        At = sigma * rng.normal(size=N_SAMPLES)
        pairs[sigma] = (A, At)
    return pairs


def test_01_contraction_bound_per_pair(gaussian_pairs):
    start = time.monotonic()
    for sigma, (A, At) in gaussian_pairs.items():
        dA = np.abs(At - A)
        dH = np.abs(rectified_sigmoid(At) - rectified_sigmoid(A))
        violations = np.sum(dH > L_CONST * dA + 1e-9)
        assert violations == 0, f"sigma={sigma}: {violations} violations"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    ok(f"01 contraction-bound ({3 * N_SAMPLES} pairs, {elapsed:.2f}s)")


def test_02_tail_transfer_event_inclusion(gaussian_pairs):
    eps_grid = np.linspace(0.01, 1.0, 20)
    for sigma, (A, At) in gaussian_pairs.items():
        dA = At - A
        dH = rectified_sigmoid(At) - rectified_sigmoid(A)
        rows = tail_transfer(dA, dH, eps_grid, L_CONST)  # raises on inversion
        for _, lhs, rhs in rows:
            assert lhs <= rhs
    ok("02 tail-transfer (20-point grid, zero tolerance)")


def test_03_saturation_implies_margin_displacement(gaussian_pairs):
    # Valid orientation of the saturation/margin relation: an entry that
    # saturated must have moved at least margin/L in latent space. The
    # converse is false -- the slope near the boundaries sits below the
    # global constant, so a displacement beyond margin/L need not reach
    # a boundary (A=0 -> A~=2 stays interior; counterexample pinned in
    # test_analysis) -- and the aggregate bound below needs exactly this
    # inclusion.
    total = 0
    for sigma, (A, At) in gaussian_pairs.items():
        g0 = GAMMA + (ZETA - GAMMA) / (1.0 + np.exp(-A))
        interior = (g0 > 0.0) & (g0 < 1.0)
        delta = margins(A)[interior]
        dA = np.abs(At - A)[interior]
        Ht = rectified_sigmoid(At)[interior]
        saturated = (Ht == 0.0) | (Ht == 1.0)
        violations = np.sum(saturated & (dA < delta / L_CONST - 1e-9))
        assert violations == 0, f"sigma={sigma}: {violations} violations"
        total += int(np.sum(interior))
        check = clipping_check(A, At)  # also raises per entry
        assert check.clip_rate <= check.clip_bound + 1e-12
    assert total >= N_SAMPLES
    ok(f"03 saturation-implies-displacement ({total} interior entries, 0 violations)")


def test_04_hard_residual_reproduces_rtn():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(32, 32))
        for bits in (3, 4):
            p = compute_quant_params(W, bits)
            resid = residual_init(W, p)
            latent = inverse_rectified_sigmoid(resid)
            hb = hard_round(rectified_sigmoid(latent))
            q_a, w_a = adaptive_quantize(W, p, hb)
            q_r, w_r = rtn_quantize(W, p)
            assert np.array_equal(q_a, q_r.astype(np.float64))
            assert np.array_equal(w_a, w_r)
    ok("04 rtn-equivalence (50 matrices x 2 bit-widths, bit-exact)")


def test_05_truncation_error_identities():
    for seed in range(20):
        A = np.random.default_rng(seed).normal(size=(64, 48))
        S = np.linalg.svd(A, compute_uv=False)
        for r in (1, 8, 24):
            lr = svd_lowrank(A, r)
            err = A - lr.reconstruct()
            fro = np.linalg.norm(err)
            two = np.linalg.norm(err, 2)
            assert abs(fro - np.sqrt(np.sum(S[r:] ** 2))) <= 1e-5 * fro
            assert abs(two - S[r]) <= 1e-5 * two
            assert abs(lr.tail_energy - fro) <= 1e-5 * fro
    ok("05 truncation-error identities (20 matrices x 3 ranks, 1e-5 rel)")


def test_06_rearrangement_identities():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(24, 15))
        R = rearrange(A, 4, 6, 5, 3)
        fro_a, fro_r = np.linalg.norm(A), np.linalg.norm(R)
        assert abs(fro_r - fro_a) <= 1e-6 * fro_a
        P = rng.normal(size=(4, 5))
        Q = rng.normal(size=(6, 3))
        S = np.linalg.svd(rearrange(np.kron(P, Q), 4, 6, 5, 3), compute_uv=False)
        assert S[1] / S[0] < 1e-5
    ok("06 rearrangement identities (20 matrices, norm + rank-1)")


def test_07_codebook_exactness_and_assignment():
    # Exact codebook when every distinct block has its own centroid.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        distinct = rng.normal(size=(6, 4))
        blocks = distinct[rng.integers(0, 6, size=30)]
        cb = kmeans_fit(blocks, k=6, iters=50, seed=seed)
        assert wcss(blocks, cb.centroids, cb.indices) == pytest.approx(0.0, abs=1e-12)

    # Nearest-centroid assignment equals the brute-force scan.
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        L, k, d = rng.integers(2, 40), rng.integers(1, 10), rng.integers(1, 6)
        blocks = rng.normal(size=(L, d))
        centroids = rng.normal(size=(k, d))
        got = vq_assign(blocks, centroids)
        for i in range(L):
            dists = np.sum((blocks[i] - centroids) ** 2, axis=1)
            assert got[i] == int(np.argmin(dists))
    ok("07 codebook exactness + assignment oracle (100 instances)")


def test_08_gradients_match_finite_differences():
    checked_block, worst_block = 0, 0.0
    seed = 0
    while checked_block < 100:
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(8, 8))
        X = rng.normal(size=(8, 16))
        p = compute_quant_params(W, 4)
        resid = np.clip(residual_init(W, p), 0.02, 0.98)
        cb = fit_codebook(inverse_rectified_sigmoid(resid), d=4, k=8,
                          iters=50, seed=seed)
        # Probe step small enough that the oracle's own truncation error
        # sits well below the 1e-4 tolerance it certifies.
        n, w = fd_check_blockwise(W, X, p, cb, lam=1e-2, beta=4.0, h=1e-4)
        checked_block += n
        worst_block = max(worst_block, w)
        seed += 1
    assert worst_block < 1e-4

    checked_e2e, worst_e2e = 0, 0.0
    seed = 0
    while checked_e2e < 100:
        teacher = random_net((6, 10, 4), seed=seed)
        student = build_student(teacher, bits=4, k=6, d=4, kmeans_iters=50, seed=seed)
        x = np.random.default_rng(seed).normal(size=6)
        n, w = fd_check_e2e(teacher, student, x, lam=1e-2, beta=4.0)
        checked_e2e += n
        worst_e2e = max(worst_e2e, w)
        seed += 1
    assert worst_e2e < 1e-4
    ok(
        f"08 gradient checks (blockwise {checked_block} coords, "
        f"max rel {worst_block:.2e}; e2e {checked_e2e} coords, max rel {worst_e2e:.2e})"
    )


def test_09_blockwise_run_improves_over_rtn():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    W = rng.normal(size=(64, 64))
    X = rng.normal(size=(64, 256))
    p = compute_quant_params(W, 3)

    latent = inverse_rectified_sigmoid(residual_init(W, p))
    k = min(4096, latent.size // 8)
    cb = fit_codebook(latent, d=8, k=k, iters=100, seed=0)
    cfg = FinetuneConfig(steps=500)  # lr, lam, beta, warm-up at defaults
    out_cb, trace = optimize_blockwise(W, X, p, cb, cfg)
    assert trace[-1] < trace[0]

    def hard_output_mse(codebook):
        H = hard_round(rectified_sigmoid(vq_reconstruct(codebook)))
        _, what = adaptive_quantize(W, p, H)
        return float(np.sum(((W - what) @ X) ** 2))

    _, w_rtn = rtn_quantize(W, p)
    rtn_mse = float(np.sum(((W - w_rtn) @ X) ** 2))
    final_mse = hard_output_mse(out_cb)
    assert final_mse <= rtn_mse

    # Smoothed trend: the window-50 moving average at the final step
    # sits below its value at the end of warm-up.
    alpha = 2.0 / 51.0
    ema = trace[0]
    ema_at_warmup = None
    for t, v in enumerate(trace, start=1):
        ema = alpha * v + (1.0 - alpha) * ema
        if t == warmup_steps(cfg):
            ema_at_warmup = ema
    assert ema < ema_at_warmup

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"run took {elapsed:.1f}s"
    ok(
        f"09 blockwise run (loss {trace[0]:.1f}->{trace[-1]:.1f}, "
        f"hard mse {final_mse:.1f} <= rtn {rtn_mse:.1f}, {elapsed:.1f}s)"
    )


def test_10_curvature_init_beats_rtn_on_median():
    h_errs, r_errs = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(64, 64))
        X = rng.normal(size=(64, 256))
        p = compute_quant_params(W, 3)
        res, _ = curvature_init(W, X, p)
        _, w_rtn = rtn_quantize(W, p)
        h_errs.append(float(np.linalg.norm((W - res.w_q) @ X)))
        r_errs.append(float(np.linalg.norm((W - w_rtn) @ X)))
    med_h, med_r = np.median(h_errs), np.median(r_errs)
    assert med_h <= med_r
    ok(f"10 curvature-init benefit (median {med_h:.1f} <= rtn {med_r:.1f}, 10 seeds)")


def test_11_parameter_ratio():
    vq = param_count("vq", 2048, 2048, k=4096, d=8)
    elementwise = param_count("elementwise", 2048, 2048)
    assert vq == 32768
    ratio = vq / elementwise
    assert ratio == pytest.approx(0.0078125)
    assert ratio < 0.01
    ok(f"11 parameter ratio (32768 / {elementwise} = {100 * ratio:.2f}% < 1%)")


def test_12_worst_case_error_dominance(heavy_tail_sweep):
    wins = 0
    for A, approx in heavy_tail_sweep:
        rows = {r.method: r for r in compare_methods(A, approx)}  # asserts chain
        assert rows["vq"].params == rows["lowrank"].params == 2048
        wins += rows["vq"].norm_inf < rows["lowrank"].norm_inf
    assert wins >= 8
    ok(f"12 worst-case-error dominance (vq wins {wins}/10 seeds, norm chains hold)")


def test_13_e2e_toy_run():
    rng = np.random.default_rng(0)
    teacher = random_net((16, 32, 4), seed=0)
    data = [rng.normal(size=16) for _ in range(128)]
    student = build_student(teacher, bits=3, k=16, d=8, kmeans_iters=100, seed=0)
    cfg = FinetuneConfig(steps=300)
    res = e2e_finetune(teacher, student, data, cfg)
    assert res.hard_kl_final <= res.hard_kl_warmup_end
    w = warmup_steps(cfg)
    assert np.array_equal(res.loss_trace[:w], res.kd_trace[:w])
    ok(
        f"13 e2e toy run (hard KL {res.hard_kl_warmup_end:.4f} -> "
        f"{res.hard_kl_final:.4f}, warm-up pure)"
    )
