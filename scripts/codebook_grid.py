#!/usr/bin/env python3
"""Desk-scale codebook ablation: sweep centroid count and block length
on one synthetic layer and record reconstruction quality per setting.

Writes a CSV with, per (k, d): trainable parameter count, latent
worst-case and Frobenius reconstruction errors, and the hard-rounded
output error of the resulting quantized layer.
"""

import argparse
import itertools

import numpy as np

from vqround.hessian import residual_init
from vqround.optim import soft_quant_forward
from vqround.quantize import RoundingSpec, compute_quant_params, inverse_rectified_sigmoid
from vqround.reparam import fit_codebook, vq_reconstruct
from vqround.tensor_io import write_csv


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
    spec = RoundingSpec()
    p = compute_quant_params(W, args.bits)
    latent = inverse_rectified_sigmoid(residual_init(W, p), spec)

    rows = []
    for k, d in itertools.product(args.k_grid, args.d_grid):
        if latent.size % d != 0:
            continue
        kc = min(k, latent.size // d)
        cb = fit_codebook(latent, d, kc, iters=args.kmeans_iters, seed=args.seed)
        approx = vq_reconstruct(cb)
        err = latent - approx
        what = soft_quant_forward(W, p, cb, spec, hard=True).what
        out_err = float(np.sum(((W - what) @ X) ** 2))
        rows.append([
            kc, d, kc * d,
            float(np.max(np.abs(err))),
            float(np.linalg.norm(err)),
            out_err,
        ])
        print(f"k={kc:5d} d={d}: params={kc * d:6d} "
              f"latent_inf={rows[-1][3]:.4f} latent_fro={rows[-1][4]:.3f} "
              f"hard_output_mse={out_err:.2f}")

    write_csv(
        ["k", "d", "params", "latent_err_inf", "latent_err_fro", "hard_output_mse"],
        rows,
        args.out,
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
