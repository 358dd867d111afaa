#!/usr/bin/env python3
"""Noise estimation: concomitant scale vs. post-hoc residuals as n grows.

The concomitant estimate is a byproduct of the fit itself; the baseline has
to re-derive a scale from its residuals afterwards. With enough noise power
the joint estimate wins at every sample size.
"""

from colide.bench import ExperimentConfig, run_grid
from colide.graphs import GraphModelSpec
from colide.sem import NoiseSpec

cfg = ExperimentConfig(
    graph=GraphModelSpec(model="ER", d=50, k=4),
    noise=NoiseSpec(family="gaussian", profile="ev", variance=5.0),
    methods=("colide_ev", "ls_baseline"),
    seeds=(0, 1, 2),
    n_sweep=(250, 500, 1000, 2000),
)

print("running the sweep (a few minutes: 2 methods x 3 seeds x 4 sizes)...")
records = run_grid(cfg)

print(f"\n{'n':>6} {'colide_ev':>12} {'ls posthoc':>12}")
for n in cfg.n_sweep:
    row = {}
    for r in records:
        if r.get("aggregate") and r["n"] == n:
            row[r["method"]] = r["noise_rel_error_mean"]
    print(f"{n:>6} {row['colide_ev']:>12.4f} {row['ls_baseline']:>12.4f}")

print("\nrelative error of the noise scale estimate; smaller is better")
