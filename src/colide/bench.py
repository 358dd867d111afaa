"""Benchmark harness: experiment configs, seeded grids, and result emission.

A grid cell is one (seed, method, n) triple, n ranging over the sample-size
sweep (data.n_sweep) or fixed at data.n; cells own independent random streams
(see rng.stream), so reruns and harness parallelism are bit-reproducible.
Records are emitted as JSON lines plus a CSV summary table; the record file
carries a content hash over the payload (timestamp excluded).
"""

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, CyclicGraphError, DataError
from .graphs import (GraphModelSpec, assign_edge_weights, is_dag, load_adjacency_csv,
                     read_matrix_csv, sample_er_dag, sample_sf_dag, write_matrix_csv)
from .metrics import evaluate, posthoc_noise
from .rng import stream
from .sem import Dataset, NoiseSpec, draw_node_variances, sample_noise, simulate_sem, standardize
from .solver import (
    DEFAULT_LAMBDA,
    DEFAULT_LR,
    DEFAULT_THRESHOLD,
    StageSchedule,
    _check_settings,
    default_schedule,
    fit_stack,
)

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "read_config",
    "run_grid",
    "run_sachs",
    "generate_instance",
    "load_dataset_csv",
    "save_dataset_csv",
    "emit_results",
    "payload_bytes",
]

METRIC_KEYS = ("shd", "shd_normalized", "shd_c", "sid", "tpr", "fdr",
               "noise_rel_error", "edge_count_est")


@dataclass
class ExperimentConfig:
    graph: GraphModelSpec
    noise: NoiseSpec
    n: int = 1000
    methods: tuple = ("colide_ev",)
    lam: float = DEFAULT_LAMBDA
    lr: float = DEFAULT_LR
    threshold: float = DEFAULT_THRESHOLD
    schedule: StageSchedule | None = None
    seeds: tuple = (0,)
    master_seed: int = 0
    standardize: bool = False
    jobs: int = 1
    n_sweep: tuple = ()
    out_path: str | None = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"run.jobs must be at least 1, got {self.jobs}")
        if min((self.n, *self.n_sweep)) < (2 if self.standardize else 1):  # one sample has no spread
            raise ValueError("n and every n_sweep size must be at least 1, and 2 with data.standardize")
        axes = {"run.seeds": self.seeds, "fit.methods": self.methods, "data.n_sweep": self.n_sweep}
        if not self.seeds or any(len(set(axis)) != len(axis) for axis in axes.values()):
            raise ValueError(f"run.seeds must be nonempty and every grid axis distinct, got {axes}")
        if min((*self.seeds, self.master_seed)) < 0:  # a SeedSequence key
            raise ValueError(f"run.seeds and run.master_seed must be >= 0, got {self.seeds}, {self.master_seed}")
        _check_settings(self.methods, self.lam, self.lr, self.threshold)

    def flat(self) -> dict:
        """The resolved configuration under its config-file keys, less _UNRECORDED."""
        record = {}
        for key, (_, target) in _CONFIG_KEYS.items():
            if key not in _UNRECORDED:
                group, _, name = target.rpartition(".")
                value = getattr(getattr(self, group) if group else self, name)
                record[key] = (value or default_schedule()).stages if name == "schedule" else value
        return record


# ---------------------------------------------------------------------------
# Config file: line-oriented "dotted.key = value" text, unknown keys rejected.
# ---------------------------------------------------------------------------

def _parse_interval(text: str):
    lo, _, hi = text.strip().partition(":")  # a second interval makes hi unparseable
    return float(lo), float(hi)


def _parse_stages(text: str):
    out = []
    for part in text.split(","):
        mu, s, t = part.strip().split(":")
        out.append((float(mu), float(s), int(t)))
    return StageSchedule(stages=tuple(out))


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {text!r}")


def _parse_ints(text: str):
    return tuple(int(x) for x in text.split(","))


# config key -> (value parser, ExperimentConfig field or graph./noise. spec field)
_CONFIG_KEYS = {
    "graph.model": (str, "graph.model"),
    "graph.d": (int, "graph.d"),
    "graph.k": (float, "graph.k"),
    "graph.weight_ranges": (lambda t: tuple(map(_parse_interval, t.split(","))), "graph.weight_ranges"),
    "noise.family": (str, "noise.family"),
    "noise.profile": (str, "noise.profile"),
    "noise.variance": (float, "noise.variance"),
    "noise.variance_range": (_parse_interval, "noise.variance_range"),
    "data.n": (int, "n"),
    "data.standardize": (_parse_bool, "standardize"),
    "data.n_sweep": (_parse_ints, "n_sweep"),
    "fit.methods": (lambda t: tuple(x.strip() for x in t.split(",")), "methods"),
    "fit.lambda": (float, "lam"),
    "fit.lr": (float, "lr"),
    "fit.threshold": (float, "threshold"),
    "fit.schedule": (_parse_stages, "schedule"),
    "run.seeds": (_parse_ints, "seeds"),
    "run.master_seed": (int, "master_seed"),
    "run.jobs": (int, "jobs"),
    "out.path": (str, "out_path"),
}
_UNRECORDED = ("run.jobs", "out.path")  # keys that change no result


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented key = value experiment config format.

    Keys absent from the text keep the dataclass defaults, except the graph
    model, d and k, which default to ER, 20 and 2. Any fault is a ConfigError.
    """
    kw = {"graph": {"model": "ER", "d": 20, "k": 2.0}, "noise": {}}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        parser, target = _CONFIG_KEYS[key]
        group, _, name = target.rpartition(".")
        try:
            (kw[group] if group else kw)[name] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    try:
        return ExperimentConfig(graph=GraphModelSpec(**kw.pop("graph")),
                                noise=NoiseSpec(**kw.pop("noise")), **kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def read_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# Instance generation and grid execution.
# ---------------------------------------------------------------------------

def generate_instance(cfg: ExperimentConfig, seed: int, n: int | None = None):
    """Sample (true W, true noise scales, dataset) for one seed.

    Graph sampling, weight assignment, variance draws, and noise draws use
    four independent named streams, so e.g. changing n never changes the graph.
    """
    n = cfg.n if n is None else n
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    sampler = sample_er_dag if cfg.graph.model == "ER" else sample_sf_dag
    support = sampler(cfg.graph, stream(cfg.master_seed, seed, "graph"))
    W_true = assign_edge_weights(support, cfg.graph.weight_ranges,
                                 stream(cfg.master_seed, seed, "weights"))
    if cfg.noise.profile == "nv":
        variances = draw_node_variances(cfg.noise, cfg.graph.d,
                                        stream(cfg.master_seed, seed, "variances"))
    else:
        variances = np.full(cfg.graph.d, cfg.noise.variance)
    Z = sample_noise(cfg.noise.family, variances, n,
                     stream(cfg.master_seed, seed, "noise"))
    ds = simulate_sem(W_true, Z)
    if cfg.standardize:  # dividing each row by its sample sd divides its noise sd too
        raw, ds = ds, standardize(ds)
        return W_true, np.sqrt(variances) / raw.X.std(axis=1), ds
    return W_true, np.sqrt(variances), ds


def _fit_record(ds, res, profile: str) -> dict:
    """Record fields of the fit res of ds: error, or wall_time_ms, iterations and the scale estimate."""
    if isinstance(res, Exception):  # a FitError, or the DataError of data that overflow
        return {"error": str(res)}
    key, scale = "sigma_estimate", res.scale
    if scale is None:  # no concomitant scale: the post-hoc residual estimate under profile
        key, scale = "sigma_posthoc", posthoc_noise(ds, res.W, profile=profile)
    return {"wall_time_ms": res.wall_time * 1e3, "iterations": res.iters_per_stage,
            key: np.atleast_1d(scale).tolist()}


def _fit_and_score(ds, W_true, res, profile: str, true_sigmas=None):
    """The fit fields of res (_fit_record) and its estimate's metrics against W_true; faults become "error"."""
    record = _fit_record(ds, res, profile)
    if "error" in record:
        return record
    key = "sigma_estimate" if "sigma_estimate" in record else "sigma_posthoc"
    true_scale = true_sigmas  # per-node estimates against per-node sigmas, one against the RMS sigma
    if true_sigmas is not None and len(record[key]) == 1:
        true_scale = float(np.sqrt(np.mean(true_sigmas ** 2)))
    try:
        scored = asdict(evaluate(res.W_thresholded, W_true, est_scale=record[key], true_scale=true_scale))
    except DataError as exc:
        if isinstance(exc, CyclicGraphError) and exc.graph == "estimate":
            del record[key]
            record["error"] = "cyclic estimate: the thresholded W has a directed cycle"
            return record
        scored = {"error": str(exc)}
    return {**record, **scored}


def _run_stack(cfg: ExperimentConfig, cells):
    """Records of the (seed, method, n) cells, fitted together as one stack on one instance per (seed, n)."""
    instances = {key: generate_instance(cfg, *key) for key in dict.fromkeys((seed, n) for seed, _, n in cells)}
    picked = [instances[seed, n] for seed, _, n in cells]
    fits = fit_stack([ds for _, _, ds in picked], [method for _, method, _ in cells],
                     schedule=cfg.schedule, lam=cfg.lam, lr=cfg.lr, tau=cfg.threshold)
    return [{**cfg.flat(), "seed": seed, "method": method, "n": ds.n,
             **_fit_and_score(ds, W_true, res, cfg.noise.profile, true_sigmas)}
            for (seed, method, _), (W_true, true_sigmas, ds), res in zip(cells, picked, fits)]


def _stacks(cells, jobs: int):
    """The cells cut, in their order, into min(jobs, cells) contiguous stacks whose sizes differ by at most 1."""
    c = min(jobs, len(cells))
    return [cells[i * len(cells) // c:(i + 1) * len(cells) // c] for i in range(c)]


def run_grid(cfg: ExperimentConfig):
    """Run the seed x method grid at each sample size of cfg.n_sweep (or at cfg.n).

    Returns per-cell records, each size's cells followed by its aggregate
    rows; in a sweep the aggregate rows carry "n". Fit failures, cyclic
    estimates and data faults met while scoring (a truth with no edges) are
    recorded in the affected row, never fatal to the grid.
    The cells, ordered by size, then seed, then method, are cut into
    min(cfg.jobs, cells) contiguous stacks of near-equal size, one per pool
    process (one stack runs in this process, with no pool); each stack spans
    methods and sizes and runs as one stacked fit
    (fit_stack) on one instance per (seed, n). A record's wall_time_ms is its
    stack's wall time divided by the stack size. Output order is
    deterministic (by size, then seed, then method order).
    """
    sizes = cfg.n_sweep or (None,)
    cells = [(seed, method, n) for n in sizes
             for seed in sorted(cfg.seeds) for method in cfg.methods]
    stacks = _stacks(cells, cfg.jobs)
    if len(stacks) > 1:  # a pool starts all its workers at once: one per stack
        with ProcessPoolExecutor(max_workers=len(stacks)) as pool:
            fitted = list(pool.map(_run_stack, [cfg] * len(stacks), stacks))
    else:
        fitted = [_run_stack(cfg, stack) for stack in stacks]
    done = [record for records in fitted for record in records]
    records, per_size = [], len(done) // len(sizes)
    for k, n in enumerate(sizes):
        batch = done[k * per_size:(k + 1) * per_size]
        records.extend(batch)
        for row in aggregate(batch, cfg.methods):
            records.append(row if n is None else {**row, "n": n})
    return records


def aggregate(records, methods):
    """One mean +/- std row per method over the cell records without an error."""
    rows = []
    for method in methods:
        cells = [r for r in records if r.get("method") == method and "error" not in r]
        row = {"aggregate": True, "method": method, "runs": len(cells)}
        for key in METRIC_KEYS:
            vals = [r[key] for r in cells if r.get(key) is not None]
            if vals:
                row[f"{key}_mean"] = float(np.mean(vals))
                row[f"{key}_std"] = float(np.std(vals))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Dataset CSV files (rows = samples, columns = variables).
# ---------------------------------------------------------------------------

def load_dataset_csv(path, has_header: bool = False) -> Dataset:
    return Dataset(X=read_matrix_csv(path, has_header).T)


def save_dataset_csv(ds: Dataset, path) -> None:
    write_matrix_csv(ds.X.T, path)


def run_sachs(data_path, truth_path, methods=("colide_ev", "colide_nv"),
              lam: float = DEFAULT_LAMBDA, threshold: float = DEFAULT_THRESHOLD):
    """Fit real flow-cytometry data and score each method like a grid cell."""
    if len(set(methods)) != len(methods):
        raise ConfigError(f"each method at most once, got {methods}")
    ds = load_dataset_csv(data_path, has_header=True)
    W_true = load_adjacency_csv(truth_path)
    if W_true.shape[0] != ds.d or not is_dag(W_true):
        raise DataError("ground truth must be a DAG on the dataset's nodes")
    fits = fit_stack([ds] * len(methods), list(methods), lam=lam, tau=threshold)
    return [{"dataset": str(data_path), "method": method, **_fit_and_score(ds, W_true, res, "ev")}
            for method, res in zip(methods, fits)]


# ---------------------------------------------------------------------------
# Result emission: JSON lines + CSV summary, content-hashed payload.
# ---------------------------------------------------------------------------

def payload_bytes(records) -> bytes:
    """Canonical byte representation of the records for hashing/comparison.

    Timing fields (wall_time_ms) stay in the emitted records but live outside
    the hashed payload, like the written_at timestamp: reruns with identical
    seeds produce identical payloads.
    """
    stripped = [{k: v for k, v in r.items() if k != "wall_time_ms"}
                for r in records]
    return json.dumps(stripped, sort_keys=True).encode("utf-8")


def emit_results(records, path) -> str:
    """Write one JSON object per record, a trailing meta line, and a CSV summary.

    The meta line carries a sha256 over the record payload; the timestamp
    lives only in the meta line and is excluded from the hash. The summary
    goes to <path>.summary.csv. Returns the hash.
    """
    content_hash = hashlib.sha256(payload_bytes(records)).hexdigest()
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.write(json.dumps({"meta": True, "content_hash": content_hash,
                             "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}) + "\n")
    aggregates = [r for r in records if r.get("aggregate")]
    if aggregates:
        _write_summary_csv(aggregates, f"{path}.summary.csv")
    return content_hash


def _write_summary_csv(aggregates, path) -> None:
    methods = sorted({r["method"] for r in aggregates})
    has_n = any("n" in r for r in aggregates)
    groups = {}
    for r in aggregates:
        groups.setdefault(r.get("n"), []).append(r)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((["n"] if has_n else []) + ["metric"] + methods)
        for n, rows in groups.items():
            by_method = {r["method"]: r for r in rows}
            for key in METRIC_KEYS:
                if not any(f"{key}_mean" in r for r in rows):
                    continue
                line = ([n] if has_n else []) + [key]
                for m in methods:
                    r = by_method.get(m, {})
                    if f"{key}_mean" in r:
                        line.append(f"{r[f'{key}_mean']:.4g}±{r[f'{key}_std']:.4g}")
                    else:
                        line.append("")
                writer.writerow(line)
