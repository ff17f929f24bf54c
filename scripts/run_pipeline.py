#!/usr/bin/env python3
"""Drive the whole pipeline on one synthetic layer and print a summary:
curvature-aware initialization, codebook fit, blockwise optimization,
and the analysis reports, with the round-to-nearest baseline alongside.
"""

import argparse
import os

import numpy as np

from vqround.analysis import inf_norm_comparison, theory_report
from vqround.hessian import curvature_init, residual_init
from vqround.optim import FinetuneConfig, optimize_blockwise, soft_quant_forward
from vqround.quantize import (
    RoundingSpec,
    compute_quant_params,
    inverse_rectified_sigmoid,
    rtn_quantize,
)
from vqround.reparam import fit_codebook, vq_reconstruct
from vqround.tensor_io import write_csv


def hard_output_mse(W, X, p, cb, spec):
    what = soft_quant_forward(W, p, cb, spec, hard=True).what
    return float(np.sum(((W - what) @ X) ** 2))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=64)
    ap.add_argument("--cols", type=int, default=64)
    ap.add_argument("--samples", type=int, default=256)
    ap.add_argument("--bits", type=int, default=3)
    ap.add_argument("--k", type=int, default=4096)
    ap.add_argument("--d", type=int, default=8)
    ap.add_argument("--kmeans-iters", type=int, default=100)
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="pipeline_out")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    W = rng.normal(size=(args.rows, args.cols))
    X = rng.normal(size=(args.cols, args.samples))
    spec = RoundingSpec()
    p = compute_quant_params(W, args.bits)

    _, w_rtn = rtn_quantize(W, p)
    rtn_err = float(np.linalg.norm((W - w_rtn) @ X))
    print(f"rtn calibration error          : {rtn_err:.3f}")

    _, gptq_err = curvature_init(W, X, p)
    print(f"curvature-init calibration err : {gptq_err:.3f}")

    latent = inverse_rectified_sigmoid(residual_init(W, p), spec)
    k = min(args.k, latent.size // args.d)
    cb = fit_codebook(latent, args.d, k, iters=args.kmeans_iters, seed=args.seed)
    print(f"codebook                       : k={k}, d={args.d} "
          f"({k * args.d} of {W.size} params, "
          f"{100.0 * k * args.d / W.size:.2f}%)")

    cfg = FinetuneConfig(steps=args.steps)
    before = hard_output_mse(W, X, p, cb, spec)
    out_cb, trace = optimize_blockwise(W, X, p, cb, cfg, spec)
    after = hard_output_mse(W, X, p, out_cb, spec)
    print(f"blockwise loss                 : {trace[0]:.2f} -> {trace[-1]:.2f}")
    print(f"hard-rounded output mse        : {before:.2f} -> {after:.2f} "
          f"(rtn baseline {float(np.sum(((W - w_rtn) @ X) ** 2)):.2f})")

    os.makedirs(args.out_dir, exist_ok=True)
    approx = vq_reconstruct(out_cb)
    rep = theory_report(latent, approx, spec)
    write_csv(
        ["epsilon", "tail_lhs", "tail_rhs"],
        list(zip(rep.epsilon_grid, rep.tail_lhs, rep.tail_rhs)),
        os.path.join(args.out_dir, "tail.csv"),
    )
    print(f"max contraction ratio observed : {rep.max_observed_ratio:.4f} "
          f"(bound {rep.lipschitz_L})")
    print(f"saturation rate / bound        : {rep.clip_rate:.4f} / {rep.clip_bound:.4f}")

    rows = inf_norm_comparison(latent, k * args.d, d=args.d,
                               kmeans_iters=args.kmeans_iters, seed=args.seed)
    write_csv(
        ["params", "norm_inf", "norm_2", "norm_fro"],
        [[r.params, r.norm_inf, r.norm_2, r.norm_fro] for r in rows],
        os.path.join(args.out_dir, "norms.csv"),
    )
    for r in rows:
        print(f"{r.method:>10} norms              : inf={r.norm_inf:.4f} "
              f"two={r.norm_2:.4f} fro={r.norm_fro:.4f} ({r.params} params)")
    print(f"reports in {args.out_dir}/")


if __name__ == "__main__":
    main()
