#!/usr/bin/env python3
"""Benchmark of the vqround pipeline, driven through ``vqround.cli.main``.

    python3 perfbench/run.py --workload layer-256 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One workload runs in this process: it repeats a seeded set-up plus the
workload's CLI stages until ``--seconds`` have passed, checks every
output, and prints a report whose last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics. ``--workload all``
runs every workload on ``--seed`` and ``--seed + 1``, each in a fresh
process, and prints one table. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Compile vqround afresh in every run instead of caching bytecode in the
# checkout, so the first run's import costs the same as later ones'.
sys.dont_write_bytecode = True

import tracer  # noqa: E402  (stdlib only; the vqround imports wait for run_one)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("layer-256", "vq-512", "e2e-toy", "init-2048")
# BLAS threads, held fixed (capped at the usable cores) so that two
# commits measured on one machine run alike. One, because numpy and scipy
# each bring an OpenBLAS, and two threads each oversubscribed two cores.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 600

# name -> (unit, better, value); ``value`` names keys of one traced
# repetition's record, summed when it lists several.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "quality_ratio": ("ratio", "lower"),
}
PER_LAYER = {
    "cli.init_s": ("s", "lower", ["cli.init:s"]),
    "cli.vq_s": ("s", "lower", ["cli.vq:s"]),
    "cli.optimize_s": ("s", "lower", ["cli.optimize:s"]),
    "cli.analyze_s": ("s", "lower", ["cli.analyze:s"]),
    "cli.self_s": ("s", "lower", ["cli.self_s"]),
    "tensor_io.load_s": ("s", "lower", ["tensor_io.load_tensor:s", "tensor_io.load_indices_u32:s"]),
    "tensor_io.save_s": ("s", "lower", ["tensor_io.save_tensor:s", "tensor_io.save_indices_u32:s",
                                        "tensor_io.write_csv:s"]),
    "tensor_io.self_s": ("s", "lower", ["tensor_io.self_s"]),
    "tensor_io.calls": ("count", "lower", ["tensor_io.calls"]),
    "tensor_io.bytes_read": ("B", "lower", ["tensor_io.bytes_read"]),
    "tensor_io.bytes_written": ("B", "lower", ["tensor_io.bytes_written"]),
    "hessian.accumulate_s": ("s", "lower", ["hessian.accumulate_hessian:s"]),
    "hessian.factor_s": ("s", "lower", ["hessian.damped_inverse_factor:s"]),
    "hessian.sweep_s": ("s", "lower", ["hessian.hessian_aware_init:s"]),
    "hessian.self_s": ("s", "lower", ["hessian.self_s"]),
    "hessian.accumulate_gflop": ("GFLOP", "lower", ["hessian.accumulate_gflop"]),
    "hessian.peak_alloc_mb": ("MB", "lower", ["hessian.peak_alloc_mb"]),
    "hessian.seed_live_frac": ("frac", "higher", ["hessian.seed_live_frac"]),
    "quantize.self_s": ("s", "lower", ["quantize.self_s"]),
    "quantize.calls": ("count", "lower", ["quantize.calls"]),
    "reparam.kmeans_fit_s": ("s", "lower", ["reparam.kmeans_fit:s"]),
    "reparam.vq_assign_s": ("s", "lower", ["reparam.vq_assign:s"]),
    "reparam.vq_reconstruct_s": ("s", "lower", ["reparam.vq_reconstruct:s"]),
    "reparam.vq_reconstruct_calls": ("count", "lower", ["reparam.vq_reconstruct:calls"]),
    "reparam.self_s": ("s", "lower", ["reparam.self_s"]),
    "reparam.peak_alloc_mb": ("MB", "lower", ["reparam.peak_alloc_mb"]),
    "reparam.dist_matrix_mb": ("MB", "lower", ["reparam.dist_matrix_mb"]),
    "optim.step_ms_p50": ("ms", "lower", ["optim.step_ms_p50"]),
    "optim.step_ms_p95": ("ms", "lower", ["optim.step_ms_p95"]),
    "optim.step_samples": ("count", "higher", ["optim.step_samples"]),
    "optim.optimize_blockwise_s": ("s", "lower", ["optim.optimize_blockwise:s"]),
    "optim.soft_quant_forward_s": ("s", "lower", ["optim.soft_quant_forward:s"]),
    "optim.soft_quant_forward_calls": ("count", "lower", ["optim.soft_quant_forward:calls"]),
    "optim.scatter_s": ("s", "lower", ["optim.scatter_to_centroids:s"]),
    "optim.adam_s": ("s", "lower", ["optim.adam_step:s"]),
    "optim.self_s": ("s", "lower", ["optim.self_s"]),
    "optim.peak_alloc_mb": ("MB", "lower", ["optim.peak_alloc_mb"]),
    "optim.live_frac": ("frac", "higher", ["optim.live_frac"]),
    "distill.build_student_s": ("s", "lower", ["distill.build_student:s"]),
    "distill.e2e_finetune_s": ("s", "lower", ["distill.e2e_finetune:s"]),
    "distill.step_ms_p50": ("ms", "lower", ["distill.step_ms_p50"]),
    "distill.step_ms_p95": ("ms", "lower", ["distill.step_ms_p95"]),
    "distill.step_samples": ("count", "higher", ["distill.step_samples"]),
    "distill.forward_logits_s": ("s", "lower", ["distill.forward_logits:s"]),
    "distill.forward_logits_calls": ("count", "lower", ["distill.forward_logits:calls"]),
    "distill.self_s": ("s", "lower", ["distill.self_s"]),
    "analysis.self_s": ("s", "lower", ["analysis.self_s"]),
    "trace.glue_s": ("s", "lower", ["trace.glue_s"]),
    "trace.wall_s": ("s", "lower", ["trace.wall_s"]),
    "trace.overhead_frac": ("frac", "lower", ["trace.overhead_frac"]),
}
# Named quality figures printed beside the end-to-end metrics.
QUALITY_UNITS = {"hard_err_ratio": "ratio", "wcss": "latent^2", "hard_kl_final": "nats",
                 "init_recon_err": "norm"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> tuple[int, int]:
    nproc = len(os.sched_getaffinity(0))
    return nproc, min(BLAS_THREADS, nproc)


def environment(np, scipy) -> dict:
    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    nproc, threads = blas_threads()
    return {"nproc": nproc, "blas_threads": threads, "python": platform.python_version(),
            "machine": platform.machine(), "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy)}


def output_hash(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_printed(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            try:
                values[key.strip()] = float(value)
            except ValueError:
                pass
    return values


class Runner:
    """Runs repetitions of one workload and collects their records."""

    def __init__(self, workload, seed: int, cli, checks_cls):
        self.wl, self.seed, self.cli, self.Checks = workload, seed, cli, checks_cls
        self.work = OUT / f"work-{workload.name}-{os.getpid()}"
        self.first_hash = None
        self.peak_rss_mb = float("nan")

    def _stage(self, name, argv, checks, printed, tr):
        buf = io.StringIO()
        span = tr.span(f"cli.{name}") if tr else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(buf), span:
                rc = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a harness failure
            traceback.print_exc()
            rc = -1
        printed.update(parse_printed(buf.getvalue()))
        return checks.record(f"stage {name}", rc == 0, f"exit {rc}")

    def rep(self, index: int, tr=None) -> dict:
        """One repetition. Repetition 1 repeats repetition 0's inputs, to
        check that outputs are byte-identical; every later one draws new
        inputs from the seed."""
        d = self.work / f"rep{index}"
        (d / "in").mkdir(parents=True)
        (d / "out").mkdir()
        inputs = max(index - 1, 0)
        quality = index != 1 and inputs < self.wl.quality_inputs
        t = time.perf_counter()
        self.wl.make_inputs(self.seed, inputs, str(d))
        gen_s = time.perf_counter() - t

        checks, printed = self.Checks(), {}
        steps = self.wl.steps(self.seed, str(d))
        if tr:
            tr.reset()
            tr.install()
        t0 = time.perf_counter()
        try:
            done = 0
            for name, step in steps:
                if callable(step):
                    try:
                        step()
                        checks.record(f"step {name}", True)
                    except Exception:
                        traceback.print_exc()
                        checks.record(f"step {name}", False)
                        break
                elif not self._stage(name, step, checks, printed, tr):
                    break
                done += 1
        finally:
            wall_s = time.perf_counter() - t0
            if tr:
                tr.uninstall()
        if index == 0:
            # A user runs the stages once in a fresh process, so peak memory
            # is read here. Later repetitions in the same process can land a
            # few heap pages higher, varying between processes.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        for name, _ in steps[done + 1:]:
            checks.record(f"stage {name}", False, "not run: an earlier stage failed")

        rec = {"rep": index, "inputs": inputs, "traced": bool(tr), "gen_s": gen_s,
               "wall_s": wall_s, "printed": printed, "quality": {}}
        if done == len(steps):
            try:
                figures = self.wl.check(str(d), printed, checks, quality)
                if quality:
                    rec["quality"] = figures
            except Exception as exc:
                traceback.print_exc()
                checks.record("checks", False, repr(exc))
            rec["hash"] = output_hash(d / "out")
            if index == 0:
                self.first_hash = rec["hash"]
            elif index == 1:
                checks.record("deterministic outputs", rec["hash"] == self.first_hash,
                              f"{rec['hash'][:16]} vs {self.first_hash}")
        else:
            checks.record("checks", False, "not run: a stage failed")
        rec["ops"] = checks.ops
        if tr:
            layer = tracer.layer_times(tr.spans, wall_s)
            layer.update(tr.counters)
            if done == len(steps):
                layer.update(self.wl.live(str(d), tr.kept))
            rec["layer"] = layer
            rec["intervals"] = {loop: tracer.step_intervals(tr.spans, f"{loop}.{fn}")
                                for loop, fn in (("optim", "optimize_blockwise"),
                                                 ("distill", "e2e_finetune"))}
            rec["spans"] = [[s[tracer.NAME], s[tracer.START] - t0, s[tracer.END] - t0,
                             s[tracer.PARENT], s[tracer.ALLOC]] for s in tr.spans]
            tr.reset()
        shutil.rmtree(d)
        return rec


def mean_quality(reps) -> dict:
    """Each quality figure averaged over the repetitions that computed it."""
    values: dict[str, list[float]] = {}
    for r in reps:
        for k, v in r["quality"].items():
            values.setdefault(k, []).append(v)
    return {k: statistics.fmean(v) for k, v in values.items()}


def end_to_end_metrics(reps, import_s, warmup_s, peak_rss_mb) -> dict:
    ok = [r for r in reps if "hash" in r]
    quality = mean_quality(reps).get("quality_ratio", float("nan"))
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ok) if ok else float("nan"),
        "setup_s": import_s + warmup_s + statistics.median(r["gen_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "quality_ratio": quality,
    }


def per_layer_metrics(reps) -> tuple[dict, dict]:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    # Report one whole traced repetition (the median by wall time), so
    # that its layers' self times plus its glue add up to its wall time.
    pick = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    values = dict(pick["layer"])
    tails = {}
    for loop in ("optim", "distill"):
        pooled = [v for r in traced for v in r["intervals"][loop]]
        values[f"{loop}.step_ms_p50"] = tracer.percentile(pooled, 0.50)
        values[f"{loop}.step_ms_p95"] = tracer.percentile(pooled, 0.95)
        values[f"{loop}.step_samples"] = len(pooled)
        tails[loop] = tracer.tail_percentile(pooled)
    u = statistics.median(r["wall_s"] for r in untraced)
    t = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_frac"] = (t - u) / u
    metrics = {name: sum(values.get(k, 0) for k in keys) for name, (_, _, keys) in PER_LAYER.items()}
    return metrics, {"tails": tails, "picked_rep": pick["rep"], "self_sum_s":
                     sum(v for k, v in pick["layer"].items() if k.endswith(".self_s")) +
                     pick["layer"]["trace.glue_s"]}


def run_one(args) -> int:
    nproc, threads = blas_threads()
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "vqround" / "__init__.py").is_file():
        print(f"error: {src / 'vqround'} not found; run from a vqround checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t = time.perf_counter()
    import numpy as np
    import scipy
    import scipy.linalg
    import vqround
    from vqround import cli
    import workloads
    import_s = time.perf_counter() - t
    if Path(vqround.__file__).resolve().parent != (src / "vqround").resolve():
        print(f"error: imported vqround from {vqround.__file__}, not {src}", file=sys.stderr)
        return 2

    # One BLAS and one LAPACK call, so that the libraries' one-time start-up
    # (a stall of up to 0.33 s was seen with 2 threads) counts in setup_s,
    # not in the first repetition's wall_s.
    t = time.perf_counter()
    a = np.random.default_rng(0).normal(size=(256, 256))
    scipy.linalg.cho_factor(a @ a.T + 256.0 * np.eye(256))
    warmup_s = time.perf_counter() - t

    env = environment(np, scipy)
    wl = workloads.WORKLOADS[args.workload]
    runner = Runner(wl, args.seed, cli, workloads.Checks)
    tr = tracer.Tracer() if args.trace else None
    reps = []
    OUT.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        while True:
            traced = bool(tr) and len(reps) % 2 == 1
            reps.append(runner.rep(len(reps), tr if traced else None))
            r = reps[-1]
            bad = [op for op in r["ops"] if not op[1]]
            print(f"rep {r['rep']} {'traced' if traced else 'untraced'}: gen {r['gen_s']:.3f} s, "
                  f"wall {r['wall_s']:.3f} s, ops {len(r['ops']) - len(bad)}/{len(r['ops'])} ok, "
                  f"sha256 {r.get('hash', 'none')[:16]}", flush=True)
            for op in bad:
                print(f"  FAILED {op[0]}: {op[2]}", flush=True)
            need_more = len(reps) < (2 if tr else 1 + wl.quality_inputs)
            if time.perf_counter() - start >= args.seconds and not need_more:
                break
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for op in r["ops"] if not op[1])
    quality = {k: v for k, v in mean_quality(reps).items() if k in QUALITY_UNITS}
    if args.trace:
        metrics, extra = per_layer_metrics(reps)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics, extra = end_to_end_metrics(reps, import_s, warmup_s, runner.peak_rss_mb), {}
        units = {k: v[0] for k, v in END_TO_END.items()}

    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): {wl.why}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup: import {import_s:.3f} s, blas warm-up {warmup_s:.3f} s")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6g} frac ({failed} of {attempted} operations)")
    for name, value in quality.items():
        print(f"  {name:32s} {value:14.9g} {QUALITY_UNITS[name]}")
    if args.trace:
        for loop, (label, value) in extra["tails"].items():
            print(f"  {loop} step interval {label}: {value:.4g} ms "
                  f"({metrics[loop + '.step_samples']} samples)")
        print(f"  layers' self times + glue = {extra['self_sum_s']:.6f} s; "
              f"traced wall = {metrics['trace.wall_s']:.6f} s (rep {extra['picked_rep']})")

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "environment": env,
              "import_s": import_s, "warmup_s": warmup_s, "metrics": metrics, "quality": quality,
              "failed_frac": failed / attempted,
              "reps": [{k: v for k, v in r.items() if k not in ("spans", "intervals")} for r in reps]}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str))
    if args.trace:
        with open(OUT / f"{tag}-spans.jsonl", "w") as fh:
            for r in reps:
                for s in r.get("spans", ()):
                    fh.write(json.dumps({"rep": r["rep"], "name": s[0], "start": s[1], "end": s[2],
                                         "parent": s[3], "alloc_b": s[4]}) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Run every workload on two seeds, each in a fresh process, and tabulate."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        for seed in (args.seed, args.seed + 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            report = json.loads((OUT / f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            status |= 0 if result["correct"] else 1
            rows.append((name, seed, result, report))
    print("\nsummary")
    for name, seed, result, report in rows:
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
                 if not args.trace or k in ("trace.wall_s", "trace.overhead_frac")]
        cells.append(f"failed_frac={report['failed_frac']:.3g}")
        cells += [f"{k}={v:.6g} {QUALITY_UNITS[k]}" for k, v in report["quality"].items()]
        print(f"  {name:10s} seed {seed}: " + ", ".join(cells))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
