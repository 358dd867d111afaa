#!/usr/bin/env python3
"""Digests of the solver's iterates, for checking that a change keeps them bit-identical.

Run it from a checkout, before and after a change, and compare the output:

    python3 tools/iterate_digests.py

It imports colide from the checkout's own src/, with BLAS pinned to one
thread, and prints one line per gate:
- the payload hash of perfbench/grid_d20.cfg at master seed 0 and seeds 0-3,
  at jobs 1, 2 and 3;
- the payload hash of acceptance criterion 7's grid at jobs 2;
- a sha256 over W, scale, iters_per_stage and stalls of the 8 perfbench
  fit_d50 fits (master seeds 0-1, instances 0-1, colide_ev and colide_nv);
- a sha256 over acceptance criterion 10's fit_online snapshots;
- a sha256 over stacked and online fits whose huge steps make the domain
  guard halve and stall, with their stall count (the other gates rarely or
  never stall).
A payload hash is the first 12 hex digits of the sha256 that `colide bench`
writes to its meta line. The whole run takes about a minute on a 2-vCPU VM,
half of it in criterion 7's grid.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from colide.bench import ExperimentConfig, generate_instance, parse_config, payload_bytes, run_grid  # noqa: E402
from colide.graphs import GraphModelSpec  # noqa: E402
from colide.sem import Dataset, NoiseSpec  # noqa: E402
from colide.solver import METHODS, StageSchedule, fit, fit_online, fit_stack  # noqa: E402


def grid_hash(cfg) -> str:
    return hashlib.sha256(payload_bytes(run_grid(cfg))).hexdigest()[:12]


def add_array(digest, a) -> None:
    digest.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())


def main() -> None:
    template = (ROOT / "perfbench" / "grid_d20.cfg").read_text()
    for jobs in (1, 2, 3):
        cfg = parse_config(template + f"run.master_seed = 0\nrun.seeds = 0, 1, 2, 3\nrun.jobs = {jobs}\n")
        print(f"grid_d20 jobs {jobs}: {grid_hash(cfg)}")

    criterion_7 = ExperimentConfig(
        graph=GraphModelSpec(model="ER", d=50, k=4, weight_ranges=((-1.0, -0.25), (0.25, 1.0))),
        noise=NoiseSpec(family="gaussian", profile="nv", variance_range=(0.5, 10.0)),
        n=1000, methods=("colide_nv", "colide_ev", "ls_baseline"), seeds=tuple(range(10)), jobs=2)
    print(f"criterion 7 grid jobs 2: {grid_hash(criterion_7)}")

    fits = hashlib.sha256()
    for master_seed in (0, 1):
        for instance in (0, 1):
            for method, profile in (("colide_ev", "ev"), ("colide_nv", "nv")):
                cfg = ExperimentConfig(graph=GraphModelSpec(model="ER", d=50, k=4),
                                       noise=NoiseSpec(family="gaussian", profile=profile),
                                       n=1000, master_seed=master_seed)
                res = fit(generate_instance(cfg, instance)[2], method=method)
                add_array(fits, res.W)
                add_array(fits, res.scale)
                fits.update(repr((res.iters_per_stage, res.stalls)).encode())
    print(f"fit_d50 8 fits: {fits.hexdigest()}")

    cfg = ExperimentConfig(graph=GraphModelSpec(model="ER", d=50, k=4),
                           noise=NoiseSpec(family="gaussian", profile="ev", variance=1.0), n=1000)
    snaps = fit_online(generate_instance(cfg, 0)[2], 100, method="colide_ev",
                       epochs_per_stage=[300, 300, 300, 700], snapshot_every=10)
    online = hashlib.sha256()
    for stage, epoch, W, scale in snaps:
        online.update(repr((stage, epoch)).encode())
        add_array(online, W)
        add_array(online, scale)
    print(f"criterion 10 snapshots ({len(snaps)}): {online.hexdigest()}")

    # rows sharing a component, stepped at lr = 3e5: many steps leave the domain
    rng, guarded, stalls = np.random.default_rng(0), hashlib.sha256(), 0
    X = rng.standard_normal((4, 40)) + 3.0 * rng.standard_normal(40)
    datasets = [Dataset(X=X * scale) for scale in (1.0, 0.5, 2.0)] * len(METHODS)
    methods = [method for method in METHODS for _ in range(3)]
    schedule = StageSchedule(stages=((1.0, 1.0, 300), (0.1, 0.9, 300)))
    for res in fit_stack(datasets, methods, schedule, lr=3e5):
        if isinstance(res, Exception):
            guarded.update(repr(res).encode())
            continue
        add_array(guarded, res.W)
        add_array(guarded, np.nan if res.scale is None else res.scale)
        guarded.update(repr((res.iters_per_stage, res.stalls)).encode())
        stalls += res.stalls
    for method in ("colide_ev", "colide_nv"):  # one stage: the second's warm start leaves its domain
        for stage, epoch, W, scale in fit_online(datasets[0], 4, method, StageSchedule(schedule.stages[:1]), [30],
                                                 lr=3e5):
            guarded.update(repr((stage, epoch)).encode())
            add_array(guarded, W)
            add_array(guarded, scale)
    print(f"guard halvings and stalls ({stalls} stalls in the stacked fits): {guarded.hexdigest()}")


if __name__ == "__main__":
    main()
