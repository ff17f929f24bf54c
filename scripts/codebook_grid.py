#!/usr/bin/env python3
"""Desk-scale codebook ablation: sweep centroid count and block length
on one synthetic layer and record reconstruction quality per setting,
before and after blockwise optimization.

Writes a CSV with one row per distinct (k, d), k clamped to the number
of blocks: trainable parameter count, latent worst-case and Frobenius
reconstruction errors, the hard-rounded output error of the residual
seed's codebook, and that error after blockwise optimization, also as
a ratio over round-to-nearest's.
"""

import argparse
import itertools

import numpy as np

from vqround.hessian import residual_init
from vqround.optim import FinetuneConfig, optimize_blockwise
from vqround.quantize import (
    adaptive_quantize,
    compute_quant_params,
    hard_round,
    inverse_rectified_sigmoid,
    rectified_sigmoid,
    rtn_quantize,
)
from vqround.reparam import fit_codebook, vq_reconstruct
from vqround.tensor_io import write_csv

# The blockwise optimization every setting gets, from its seed codebook.
FINETUNE = FinetuneConfig(steps=500)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=128)
    ap.add_argument("--cols", type=int, default=128)
    ap.add_argument("--samples", type=int, default=256)
    ap.add_argument("--bits", type=int, default=4)
    ap.add_argument("--k-grid", type=int, nargs="+",
                    default=[256, 512, 1024, 2048, 4096])
    ap.add_argument("--d-grid", type=int, nargs="+", default=[4, 8])
    ap.add_argument("--kmeans-iters", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="codebook_grid.csv")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    W = rng.normal(size=(args.rows, args.cols))
    X = rng.normal(size=(args.cols, args.samples))
    p = compute_quant_params(W, args.bits)
    latent = inverse_rectified_sigmoid(residual_init(W, p))

    def output_mse(what):
        return float(np.sum(((W - what) @ X) ** 2))

    def hardened(cb):
        H = hard_round(rectified_sigmoid(vq_reconstruct(cb)))
        return adaptive_quantize(W, p, H)[1]

    rtn_err = output_mse(rtn_quantize(W, p)[1])
    print(f"rtn_output_mse={rtn_err:.2f}")

    # A k above the block count clamps to it, so several grid points can
    # name one setting; each runs once, in grid order.
    settings = dict.fromkeys(
        (min(k, latent.size // d), d)
        for k, d in itertools.product(args.k_grid, args.d_grid)
        if latent.size % d == 0
    )
    rows = []
    for k, d in settings:
        cb = fit_codebook(latent, d, k, iters=args.kmeans_iters, seed=args.seed)
        err = latent - vq_reconstruct(cb)
        out_err = output_mse(hardened(cb))
        opt_err = output_mse(hardened(optimize_blockwise(W, X, p, cb, FINETUNE)[0]))
        rows.append([
            k, d, k * d,
            float(np.max(np.abs(err))),
            float(np.linalg.norm(err)),
            out_err,
            opt_err,
            opt_err / rtn_err,
        ])
        print(f"k={k:5d} d={d}: params={k * d:6d} "
              f"latent_inf={rows[-1][3]:.4f} latent_fro={rows[-1][4]:.3f} "
              f"hard_output_mse={out_err:.2f} opt_output_mse={opt_err:.2f} "
              f"opt_over_rtn={rows[-1][7]:.4f}")

    write_csv(
        ["k", "d", "params", "latent_err_inf", "latent_err_fro", "hard_output_mse",
         "opt_output_mse", "opt_over_rtn"],
        rows,
        args.out,
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
