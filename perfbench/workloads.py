"""The three benchmark workloads: seeded inputs, one timed round, output checks, metrics.

A workload makes its inputs from the workload seed (the package sees only
the generated inputs), runs rounds of its timed body, and checks the outputs
of every round. Only calls into colide are timed; bookkeeping is not.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import colide.bench
import colide.cli
import colide.metrics
import colide.solver
from colide.bench import ExperimentConfig
from colide.graphs import GraphModelSpec
from colide.sem import NoiseSpec
from summary import median

HERE = Path(__file__).resolve().parent


@dataclass
class Round:
    seconds: float                 # timed part of the round
    op_seconds: list               # one entry per timed colide call
    payload: object = None


@dataclass
class Checks:
    """Output checks; every failure counts in failed_frac and fails the run."""

    items: list = field(default_factory=list)

    def add(self, name: str, ok, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def failures(self) -> list:
        return [item for item in self.items if not item[1]]


def topological_positions(A: np.ndarray) -> np.ndarray:
    """pos[v] = rank of v in a topological order of the boolean support A.

    Kahn's algorithm, independent of colide.graphs; raises ValueError on a cycle.
    """
    indeg = A.sum(axis=0).astype(int)
    ready = sorted(np.flatnonzero(indeg == 0).tolist())
    pos = np.empty(A.shape[0], dtype=int)
    rank = 0
    while ready:
        u = ready.pop(0)
        pos[u] = rank
        rank += 1
        for v in np.flatnonzero(A[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(int(v))
    if rank != A.shape[0]:
        raise ValueError("support has a cycle")
    return pos


def is_dag(A: np.ndarray) -> bool:
    try:
        topological_positions(A)
    except ValueError:
        return False
    return True


def _mean(values):
    return float(np.mean(values)) if values else None


# ---------------------------------------------------------------------------
# fit_d50: serial fits with the default schedule on ER d=50, k=4, n=1000.
# ---------------------------------------------------------------------------

@dataclass
class FitCase:
    method: str
    W_true: np.ndarray
    true_sigmas: np.ndarray
    ds: object


class FitD50:
    name = "fit_d50"
    # A round fits one instance pair; a run fits every pair at least once, so
    # wall_s covers more than one instance and not only repeats of one.
    INSTANCES = 2
    MIN_ROUNDS = INSTANCES
    PROFILES = (("colide_ev", "ev"), ("colide_nv", "nv"))

    def make_inputs(self, seed: int):
        pairs = []
        for idx in range(self.INSTANCES):
            pair = []
            for method, profile in self.PROFILES:
                cfg = ExperimentConfig(graph=GraphModelSpec(model="ER", d=50, k=4),
                                       noise=NoiseSpec(family="gaussian", profile=profile),
                                       n=1000, master_seed=seed)
                W_true, true_sigmas, ds = colide.bench.generate_instance(cfg, idx)
                pair.append(FitCase(method, W_true, true_sigmas, ds))
            pairs.append(pair)
        return pairs

    def run_round(self, inputs, i: int) -> Round:
        ops, results = [], []
        for case in inputs[i % len(inputs)]:
            t0 = perf_counter()
            res = colide.solver.fit(case.ds, method=case.method)
            ops.append(perf_counter() - t0)
            results.append((i % len(inputs), case, res))
        return Round(seconds=sum(ops), op_seconds=ops, payload=results)

    def check(self, inputs, rounds, checks: Checks) -> None:
        s_last = colide.solver.default_schedule().stages[-1][1]
        first = {}
        for rnd in rounds:
            for idx, case, res in rnd.payload:
                tag = f"{case.method}[{idx}]"
                W = np.asarray(res.W)
                checks.add(f"{tag} W finite", np.all(np.isfinite(W)))
                sign, _ = np.linalg.slogdet(s_last * np.eye(W.shape[0]) - W * W)
                checks.add(f"{tag} W inside the log-det domain (s={s_last})", sign > 0)
                checks.add(f"{tag} thresholded W is a DAG", is_dag(np.asarray(res.W_thresholded) != 0))
                key = (idx, case.method)
                if key in first:
                    checks.add(f"{tag} repeat gives the same W", np.array_equal(first[key], W))
                else:
                    first[key] = W

    def metrics(self, inputs, rounds) -> dict:
        fits = [op for rnd in rounds for op in rnd.op_seconds]
        seen, evals, shd, tpr, err = set(), [], [], [], []
        for rnd in rounds:
            for idx, case, res in rnd.payload:
                if (idx, case.method) in seen:
                    continue
                seen.add((idx, case.method))
                # scalar estimates compare to the RMS true sigma, vectors per node
                if case.method == "colide_ev":
                    est, true = res.sigma, float(np.sqrt(np.mean(case.true_sigmas ** 2)))
                else:
                    est, true = res.sigmas, case.true_sigmas
                t0 = perf_counter()
                rep = colide.metrics.evaluate(res.W_thresholded, case.W_true,
                                              est_scale=est, true_scale=true)
                evals.append(perf_counter() - t0)
                shd.append(rep.shd)
                tpr.append(rep.tpr)
                err.append(rep.noise_rel_error)
        return {"fit_s_p50": fits, "eval_s_p50": evals, "cells_per_min": None,
                "shd_mean": (_mean(shd), len(shd)), "tpr_mean": (_mean(tpr), len(tpr)),
                "noise_rel_error_mean": (_mean(err), len(err))}

    def stage_iters(self, rounds):
        return [list(res.iters_per_stage) for rnd in rounds for _, _, res in rnd.payload]

    def stage_caps(self, inputs):
        return [t for _, _, t in colide.solver.default_schedule().stages]


# ---------------------------------------------------------------------------
# grid_d20_jobs2: `colide bench` in-process through cli.main, two pool workers.
# ---------------------------------------------------------------------------

@dataclass
class GridInputs:
    config_path: Path
    seed: int
    cfg: ExperimentConfig


class GridD20Jobs2:
    name = "grid_d20_jobs2"
    JOBS = 2
    MIN_ROUNDS = 2  # the payload hash is compared across rounds
    # the workload seed is the master seed of every cell
    TEMPLATE = HERE / "grid_d20.cfg"
    SEEDS = (0, 1, 2, 3)

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def make_inputs(self, seed: int):
        text = self.TEMPLATE.read_text()
        text += f"run.master_seed = {seed}\nrun.seeds = {', '.join(map(str, self.SEEDS))}\n"
        path = self.work_dir / f"grid_d20-seed{seed}.cfg"
        path.write_text(text)
        cfg = colide.bench.read_config(path)
        if len(cfg.seeds) != len(self.SEEDS):
            raise ValueError("grid config did not parse as written")
        return GridInputs(path, seed, cfg)

    def run_round(self, inputs, i: int) -> Round:
        out = self.work_dir / f"grid_d20-seed{inputs.seed}-round{i}.jsonl"
        argv = ["bench", "--config", str(inputs.config_path), "--out", str(out),
                "--jobs", str(self.JOBS)]
        t0 = perf_counter()
        rc = colide.cli.main(argv)
        seconds = perf_counter() - t0
        lines = [json.loads(line) for line in out.read_text().splitlines()] if rc == 0 else []
        return Round(seconds=seconds, op_seconds=[seconds], payload=(rc, lines))

    @staticmethod
    def _cells(lines):
        return [r for r in lines if not r.get("aggregate") and not r.get("meta")]

    def check(self, inputs, rounds, checks: Checks) -> None:
        hashes = []
        n_cells = len(self.SEEDS) * 3
        for i, rnd in enumerate(rounds):
            rc, lines = rnd.payload
            checks.add(f"round {i} exit code 0", rc == 0, f"got {rc}")
            cells = self._cells(lines)
            checks.add(f"round {i} has {n_cells} cell records", len(cells) == n_cells,
                       f"got {len(cells)}")
            errors = [r.get("error") for r in cells if "error" in r]
            checks.add(f"round {i} has no error rows", not errors, "; ".join(errors))
            meta = [r for r in lines if r.get("meta")]
            hashes.append(meta[-1].get("content_hash") if meta else None)
        checks.add("payload hash identical across rounds",
                   hashes[0] is not None and len(set(hashes)) == 1, str(hashes))

    def metrics(self, inputs, rounds) -> dict:
        cell_s = [r["wall_time_ms"] / 1e3 for rnd in rounds
                  for r in self._cells(rnd.payload[1]) if "wall_time_ms" in r]
        first = self._cells(rounds[0].payload[1])
        shd = [r["shd"] for r in first if "shd" in r]
        tpr = [r["tpr"] for r in first if "tpr" in r]
        err = [r["noise_rel_error"] for r in first if r.get("noise_rel_error") is not None]
        round_s = median([rnd.seconds for rnd in rounds])
        return {"fit_s_p50": cell_s, "eval_s_p50": None,
                "cells_per_min": (len(first) / round_s * 60.0, len(rounds)),
                "shd_mean": (_mean(shd), len(shd)), "tpr_mean": (_mean(tpr), len(tpr)),
                "noise_rel_error_mean": (_mean(err), len(err))}

    def stage_iters(self, rounds):
        return [list(r["iterations"]) for rnd in rounds
                for r in self._cells(rnd.payload[1]) if "iterations" in r]

    def stage_caps(self, inputs):
        return [t for _, _, t in inputs.cfg.schedule.stages]

    def cells_failed(self, rounds) -> int:
        return sum(1 for rnd in rounds for r in self._cells(rnd.payload[1]) if "error" in r)


# ---------------------------------------------------------------------------
# eval_d200: evaluate() on seeded perturbations of ER d=200 and SF d=100 truths.
# ---------------------------------------------------------------------------

@dataclass
class EvalCase:
    label: str
    W_true: np.ndarray
    W_est: np.ndarray
    expected: dict


class EvalD200:
    name = "eval_d200"
    # (model, d, k). SID cost follows how many node pairs a drawn graph
    # connects, so a run scores several truths of each kind: a round scores
    # one of each, rounds cycle through them, and wall_s, the median round,
    # is set by no single deep or shallow draw.
    TRUTHS = (("ER", 200, 2), ("SF", 100, 4))
    INSTANCES = 4
    MIN_ROUNDS = INSTANCES
    DROP_FRAC = 0.1
    ADDED = 5

    def make_inputs(self, seed: int):
        groups = []
        for idx in range(self.INSTANCES):
            cases = []
            for model, d, k in self.TRUTHS:
                cfg = ExperimentConfig(graph=GraphModelSpec(model=model, d=d, k=k),
                                       noise=NoiseSpec(family="gaussian", profile="ev"),
                                       n=2 * d, master_seed=seed)
                W_true, _, _ = colide.bench.generate_instance(cfg, idx)
                rng = np.random.default_rng([seed, idx, d])
                cases.append(self._perturb(f"{model}{d}[{idx}]", W_true, rng))
            groups.append(cases)
        return groups

    def _perturb(self, label, W_true, rng) -> EvalCase:
        """Drop ~10% of true edges and add a few forward edges, so the estimate stays a DAG.

        The structural metrics of the result are known by construction.
        """
        A = W_true != 0
        d = A.shape[0]
        edges = np.argwhere(A)
        n_drop = round(self.DROP_FRAC * len(edges))
        drop = edges[rng.choice(len(edges), size=n_drop, replace=False)]
        est = A.copy()
        est[drop[:, 0], drop[:, 1]] = False
        pos = topological_positions(A)
        added = set()
        while len(added) < self.ADDED:
            i, j = (int(v) for v in rng.choice(d, size=2, replace=False))
            if pos[i] > pos[j]:
                i, j = j, i
            if not A[i, j]:
                added.add((i, j))
        for i, j in added:
            est[i, j] = True
        n_true = len(edges)
        n_est = n_true - n_drop + self.ADDED
        expected = {"shd": n_drop + self.ADDED, "shd_normalized": (n_drop + self.ADDED) / d,
                    "tpr": (n_true - n_drop) / n_true, "fdr": self.ADDED / n_est,
                    "edge_count_est": n_est, "edge_count_true": n_true}
        return EvalCase(label, W_true, est.astype(float), expected)

    def run_round(self, inputs, i: int) -> Round:
        ops, reports = [], []
        for case in inputs[i % len(inputs)]:
            t0 = perf_counter()
            rep = colide.metrics.evaluate(case.W_est, case.W_true)
            ops.append(perf_counter() - t0)
            reports.append((case, rep))
        return Round(seconds=sum(ops), op_seconds=ops, payload=reports)

    def check(self, inputs, rounds, checks: Checks) -> None:
        first = {}
        for i, rnd in enumerate(rounds):
            for case, rep in rnd.payload:
                for key, want in case.expected.items():
                    got = getattr(rep, key)
                    checks.add(f"round {i} {case.label} {key}", math.isclose(got, want, rel_tol=1e-12),
                               f"got {got}, expected {want}")
                ref = first.setdefault(case.label, rep)
                if ref is not rep:
                    for key in ("sid", "shd_c"):
                        checks.add(f"round {i} {case.label} {key} equals its first round",
                                   getattr(rep, key) == getattr(ref, key))

    def metrics(self, inputs, rounds) -> dict:
        first = {case.label: rep for rnd in reversed(rounds) for case, rep in rnd.payload}
        reports = list(first.values())
        return {"fit_s_p50": None, "cells_per_min": None,
                "eval_s_p50": [op for rnd in rounds for op in rnd.op_seconds],
                "shd_mean": (_mean([r.shd for r in reports]), len(reports)),
                "tpr_mean": (_mean([r.tpr for r in reports]), len(reports)),
                "noise_rel_error_mean": None}

    def stage_iters(self, rounds):
        return []

    def stage_caps(self, inputs):
        return []


def make(name: str, work_dir: Path):
    if name == FitD50.name:
        return FitD50()
    if name == GridD20Jobs2.name:
        return GridD20Jobs2(work_dir)
    if name == EvalD200.name:
        return EvalD200()
    raise ValueError(f"unknown workload {name!r}")

