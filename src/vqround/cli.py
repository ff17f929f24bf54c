"""Command-line front end for the quantization pipeline.

Exit codes: 0 success, 1 usage error, 2 file/format error, 3 shape
error, 4 parameter out of range, 5 failed inequality check. All
randomness flows from --seed, so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, tensor_io
from .distill import Layer, TinyNet, build_student, e2e_finetune
from .errors import (
    DomainError,
    IoFailure,
    ShapeError,
    ShapeMismatch,
    TensorFormatError,
    TheoremViolation,
)
from .hessian import curvature_init
from .optim import FinetuneConfig, optimize_blockwise
from .quantize import compute_quant_params, inverse_rectified_sigmoid
from .reparam import fit_codebook, load_codebook, save_codebook, wcss, flatten_blocks


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_finetune_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--lam", type=float, default=1e-2,
                   help="rounding-regularizer weight")
    p.add_argument("--beta-high", type=float, default=20.0)
    p.add_argument("--beta-low", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--warmup-frac", type=float, default=0.1)
    p.add_argument("--temperature", type=float,
                   help="KL softening (e2e mode only; default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="k-means seed in e2e mode; blockwise mode is "
                        "deterministic and does not read it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vqround", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_init = sub.add_parser("init", help="curvature-compensated rounding initialization")
    p_init.add_argument("--weights", required=True)
    p_init.add_argument("--calib", required=True)
    p_init.add_argument("--bits", type=int, default=4)
    p_init.add_argument("--percdamp", type=float, default=0.01)
    p_init.add_argument("--out-prefix", required=True)

    p_vq = sub.add_parser("vq", help="fit a codebook on a latent matrix")
    p_vq.add_argument("--latent", required=True)
    p_vq.add_argument("--k", type=int, default=4096)
    p_vq.add_argument("--d", type=int, default=8)
    p_vq.add_argument("--iters", type=int, default=100)
    p_vq.add_argument("--seed", type=int, default=0)
    p_vq.add_argument("--out", required=True, help="output prefix for codebook files")

    p_opt = sub.add_parser("optimize", help="optimize codebook parameters")
    p_opt.add_argument("--mode", required=True, choices=["blockwise", "e2e"])
    p_opt.add_argument("--weights", help="layer weights (blockwise mode)")
    p_opt.add_argument("--layers", nargs="+", help="layer weight files (e2e mode)")
    p_opt.add_argument("--calib", required=True)
    p_opt.add_argument("--bits", type=int, default=4)
    p_opt.add_argument("--codebook", help="input codebook prefix (blockwise mode)")
    p_opt.add_argument("--base", help="integer base of the rounding seed, e.g. init's _b.vqt "
                                      "(blockwise mode; default floor(W/s))")
    p_opt.add_argument("--k", type=int, help="codebook size (e2e mode only; default 4096)")
    p_opt.add_argument("--d", type=int, help="block length (e2e mode only; default 8)")
    p_opt.add_argument("--kmeans-iters", type=int,
                       help="k-means iteration budget (e2e mode only; default 100)")
    p_opt.add_argument("--out", required=True, help="output prefix")
    p_opt.add_argument("--trace", help="loss-trace CSV path")
    _add_finetune_flags(p_opt)

    p_an = sub.add_parser("analyze", help="run checks and emit report CSVs")
    p_an.add_argument("--latent", required=True)
    p_an.add_argument("--approx", required=True)
    p_an.add_argument("--report-dir", required=True)
    p_an.add_argument("--budget", type=int,
                      help="also emit a budget-matched vq, low-rank and Kronecker comparison")
    p_an.add_argument("--seed", type=int,
                      help="k-means seed of the --budget comparison (default 0)")
    return parser


# The optimize flags that only e2e mode reads, with their defaults there.
_E2E_DEFAULTS = {"k": 4096, "d": 8, "kmeans_iters": 100, "temperature": 1.0}


def _refuse_unread(args, mode, names) -> None:
    """Exit 4, naming each one given, for flags that ``mode`` does not read."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise DomainError(f"{mode} mode does not read {', '.join(given)}")


def _cfg_from_args(args, **e2e) -> FinetuneConfig:
    return FinetuneConfig(
        lr=args.lr,
        lam=args.lam,
        beta_high=args.beta_high,
        beta_low=args.beta_low,
        steps=args.steps,
        warmup_frac=args.warmup_frac,
        **e2e,
    )


def cmd_init(args) -> int:
    W = tensor_io.load_tensor(args.weights)
    # The calibration goes straight in, so curvature_init can free it
    # once the Hessian exists.
    result, err = curvature_init(W, tensor_io.load_tensor(args.calib),
                                 compute_quant_params(W, args.bits), args.percdamp)
    latent = inverse_rectified_sigmoid(result.h_tilde)

    tensor_io.save_tensor(result.w_q, f"{args.out_prefix}_wq.vqt")
    tensor_io.save_tensor(result.base, f"{args.out_prefix}_b.vqt")
    tensor_io.save_tensor(result.h_tilde, f"{args.out_prefix}_h.vqt")
    tensor_io.save_tensor(latent, f"{args.out_prefix}_a.vqt")
    print(f"recon_err={err:.9g}")
    return 0


def cmd_vq(args) -> int:
    A = tensor_io.load_tensor(args.latent)
    cb = fit_codebook(A, args.d, args.k, iters=args.iters, seed=args.seed)
    save_codebook(cb, args.out)
    blocks = flatten_blocks(A, args.d)
    print(f"wcss={wcss(blocks, cb.centroids, cb.indices):.9g}")
    return 0


def _cmd_optimize_blockwise(args) -> int:
    if not args.weights or not args.codebook:
        raise DomainError("blockwise mode needs --weights and --codebook")
    _refuse_unread(args, "blockwise", ["layers", *_E2E_DEFAULTS])
    W = tensor_io.load_tensor(args.weights)
    X = tensor_io.load_tensor(args.calib)
    if X.shape[0] != W.shape[1]:
        raise ShapeMismatch(f"calibration rows {X.shape[0]} != weight cols {W.shape[1]}")
    p = compute_quant_params(W, args.bits)
    cb = load_codebook(args.codebook, W.shape)
    base = tensor_io.load_tensor(args.base) if args.base else None
    cfg = _cfg_from_args(args)
    out_cb, trace = optimize_blockwise(W, X, p, cb, cfg, base=base)
    save_codebook(out_cb, args.out)
    if args.trace:
        tensor_io.write_csv(
            ["step", "loss"],
            [[t + 1, float(v)] for t, v in enumerate(trace)],
            args.trace,
        )
    if trace.size:
        print(f"initial_loss={trace[0]:.9g}")
        print(f"final_loss={trace[-1]:.9g}")
    print(f"steps={cfg.steps}")
    return 0


def _cmd_optimize_e2e(args) -> int:
    if not args.layers:
        raise DomainError("e2e mode needs --layers")
    _refuse_unread(args, "e2e", ["weights", "codebook", "base"])
    for name, default in _E2E_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    weights = [tensor_io.load_tensor(path) for path in args.layers]
    teacher = TinyNet(layers=[Layer(weight=w) for w in weights])
    X = tensor_io.load_tensor(args.calib)
    if X.shape[0] != teacher.dims[0]:
        raise ShapeMismatch(f"calibration rows {X.shape[0]} != input dim {teacher.dims[0]}")
    cfg = _cfg_from_args(args, temperature=args.temperature)
    student = build_student(
        teacher, args.bits, args.k, args.d, kmeans_iters=args.kmeans_iters,
        seed=args.seed,
    )
    data = [X[:, i] for i in range(X.shape[1])]
    result = e2e_finetune(teacher, student, data, cfg)
    for i, cb in enumerate(result.codebooks):
        save_codebook(cb, f"{args.out}_layer{i}")
    if args.trace:
        tensor_io.write_csv(
            ["step", "loss", "kd", "reg"],
            [
                [t + 1, float(l), float(k), float(r)]
                for t, (l, k, r) in enumerate(
                    zip(result.loss_trace, result.kd_trace, result.reg_trace)
                )
            ],
            args.trace,
        )
    print(f"hard_kl_warmup_end={result.hard_kl_warmup_end:.9g}")
    print(f"hard_kl_final={result.hard_kl_final:.9g}")
    print(f"steps={cfg.steps}")
    return 0


def cmd_optimize(args) -> int:
    if args.mode == "blockwise":
        return _cmd_optimize_blockwise(args)
    return _cmd_optimize_e2e(args)


def cmd_analyze(args) -> int:
    if args.budget is None and args.seed is not None:
        raise DomainError("analyze reads --seed only with --budget")
    A = tensor_io.load_tensor(args.latent)
    At = tensor_io.load_tensor(args.approx)
    if A.shape != At.shape:
        raise ShapeMismatch(f"latent {A.shape} != approx {At.shape}")
    rows = None
    if args.budget is not None:
        seed = 0 if args.seed is None else args.seed
        rows = analysis.compare_methods(
            A, analysis.budgeted_approximations(A, args.budget, seed=seed))
    rep = analysis.theory_report(A, At)
    os.makedirs(args.report_dir, exist_ok=True)
    tensor_io.write_csv(
        ["epsilon", "tail_lhs", "tail_rhs", "lipschitz_L", "max_ratio", "clip_rate", "clip_bound"],
        [
            [eps, lhs, rhs, rep.lipschitz_L, rep.max_observed_ratio, rep.clip_rate, rep.clip_bound]
            for eps, lhs, rhs in zip(rep.epsilon_grid, rep.tail_lhs, rep.tail_rhs)
        ],
        os.path.join(args.report_dir, "theory.csv"),
    )

    hist = analysis.error_histograms(A, {"approx": At})
    centers_a = 0.5 * (hist.edges_delta_a[:-1] + hist.edges_delta_a[1:])
    centers_h = 0.5 * (hist.edges_delta_h[:-1] + hist.edges_delta_h[1:])
    tensor_io.write_csv(
        ["bin_center_delta_a", "density_delta_a", "bin_center_delta_h", "density_delta_h"],
        [
            [ca, da, ch, dh_]
            for ca, da, ch, dh_ in zip(
                centers_a,
                hist.densities_delta_a["approx"],
                centers_h,
                hist.densities_delta_h["approx"],
            )
        ],
        os.path.join(args.report_dir, "histograms.csv"),
    )

    spectrum = analysis.singular_spectrum(A)
    tensor_io.write_csv(
        ["index", "singular_value"],
        [[i, float(s)] for i, s in enumerate(spectrum)],
        os.path.join(args.report_dir, "spectrum.csv"),
    )

    if rows is not None:
        tensor_io.write_csv(
            ["params", "norm_inf", "norm_2", "norm_fro"],
            [[r.params, r.norm_inf, r.norm_2, r.norm_fro] for r in rows],
            os.path.join(args.report_dir, "norms.csv"),
        )
        for r in rows:
            print(f"{r.method}: params={r.params} inf={r.norm_inf:.9g}")

    print(f"clip_rate={rep.clip_rate:.9g}")
    return 0


_COMMANDS = {
    "init": cmd_init,
    "vq": cmd_vq,
    "optimize": cmd_optimize,
    "analyze": cmd_analyze,
}


def _check_outputs(args) -> None:
    """Refuse, before any work, an output that could not be written: a
    prefix or trace in a missing directory, a trace that is one, or a
    report directory that is, or would be made under, something else."""
    trace = getattr(args, "trace", None)
    for path in (getattr(args, "out_prefix", None), getattr(args, "out", None), trace):
        if path and not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise IoFailure(f"output directory does not exist: {path}")
    if trace and os.path.isdir(trace):
        raise IoFailure(f"trace path is a directory: {trace}")
    report_dir = getattr(args, "report_dir", None)
    if report_dir:
        # Missing parents are fine: os.makedirs creates them.
        existing = os.path.abspath(report_dir)
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise IoFailure(f"cannot make report directory {report_dir}: "
                            f"{existing} is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except (IoFailure, TensorFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TheoremViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
