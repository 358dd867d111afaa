"""Command-line benchmark harness.

Subcommands: simulate (emit dataset + ground truth), fit (dataset in,
adjacency + scales out), eval (two adjacencies in, metrics out), bench
(config in, records out), sachs (real-data preset).

Exit codes: 0 success, 1 config error, 2 data error, 3 fit divergence.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bench
from .errors import DataError
from .graphs import load_adjacency_csv, save_adjacency_csv
from .metrics import evaluate, posthoc_noise
from .sem import standardize
from .solver import (
    DEFAULT_LAMBDA,
    DEFAULT_THRESHOLD,
    METHODS,
    FitError,
    fit,
    threshold,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="colide",
                                     description="Linear DAG estimation benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit a synthetic dataset and its ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.data.csv and <out>.truth.csv")

    p = sub.add_parser("fit", help="fit one dataset and write the adjacency estimate")
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true", help="dataset CSV has a header row")
    p.add_argument("--method", default="colide_ev", choices=METHODS)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.adjacency.csv and <out>.scales.json")

    p = sub.add_parser("eval", help="score an estimated adjacency against a reference")
    p.add_argument("--est", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--threshold", type=float, default=0.0,
                   help="applied to the estimate before scoring")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bench", help="run a seeded benchmark grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="overrides out.path from the config")
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("sachs", help="real-data preset: fit and score the 11-node dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--method", action="append", choices=METHODS, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", default=None)
    return parser


def _cmd_simulate(args) -> int:
    cfg = bench.read_config(args.config)
    W_true, true_sigmas, ds = bench.generate_instance(cfg, args.seed)
    save_adjacency_csv(W_true, f"{args.out}.truth.csv")
    bench.save_dataset_csv(ds, f"{args.out}.data.csv")
    with open(f"{args.out}.noise.json", "w") as fh:
        json.dump({"true_sigmas": true_sigmas.tolist(), "seed": args.seed}, fh)
    print(f"wrote {args.out}.data.csv ({ds.d}x{ds.n}), {args.out}.truth.csv")
    return EXIT_OK


def _cmd_fit(args) -> int:
    ds = bench.load_dataset_csv(args.data, has_header=args.header)
    if args.standardize:
        ds = standardize(ds)
    res = fit(ds, method=args.method, lam=args.lam, tau=args.threshold)
    save_adjacency_csv(res.W_thresholded, f"{args.out}.adjacency.csv")
    save_adjacency_csv(res.W, f"{args.out}.adjacency_raw.csv")
    scales = {"method": args.method, "iterations": res.iters_per_stage}
    if res.scale is None:  # no concomitant scale: post-hoc residual estimate
        scales["sigma_posthoc"] = posthoc_noise(ds, res.W, profile="ev")
    else:
        scales["sigma" if np.ndim(res.scale) == 0 else "sigmas"] = np.asarray(res.scale).tolist()
    with open(f"{args.out}.scales.json", "w") as fh:
        json.dump(scales, fh, indent=2)
    print(f"wrote {args.out}.adjacency.csv and {args.out}.scales.json")
    return EXIT_OK


def _cmd_eval(args) -> int:
    W_est = load_adjacency_csv(args.est)
    W_true = load_adjacency_csv(args.truth)
    W_est = threshold(W_est, args.threshold)
    report = dataclasses.asdict(evaluate(W_est, W_true))
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = bench.read_config(args.config)
    if args.jobs is not None:
        cfg = dataclasses.replace(cfg, jobs=args.jobs)
    out = args.out or cfg.out_path
    if out is None:
        print("error: no output path (use --out or out.path)", file=sys.stderr)
        return EXIT_CONFIG
    records = bench.run_grid(cfg)
    content_hash = bench.emit_results(records, out)
    print(f"wrote {len(records)} records to {out} (hash {content_hash[:12]})")
    return EXIT_OK


def _cmd_sachs(args) -> int:
    methods = tuple(args.method) if args.method else ("colide_ev", "colide_nv")
    records = bench.run_sachs(args.data, args.truth, methods=methods,
                              lam=args.lam, threshold=args.threshold)
    if args.out:
        bench.emit_results(records, args.out)
    for record in records:
        print(json.dumps(record, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "sachs": _cmd_sachs,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FitError as exc:
        print(f"fit diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigError and every other bad setting
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
