import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from colide import bench
from colide.bench import (
    _CONFIG_KEYS,
    METRIC_KEYS,
    ExperimentConfig,
    _run_stack,
    _stacks,
    aggregate,
    emit_results,
    generate_instance,
    load_dataset_csv,
    parse_config,
    payload_bytes,
    read_config,
    run_grid,
    save_dataset_csv,
)
from colide.errors import ConfigError
from colide.graphs import GraphModelSpec, is_dag
from colide.metrics import noise_error
from colide.sem import Dataset, NoiseSpec, standardize
from colide.solver import METHODS, StageSchedule

from helpers import BAD_FIT_LINES, NON_FINITE_LINES

ROOT = Path(__file__).resolve().parent.parent
FAST_SCHED = "1:1:4000, 0.1:0.9:4000, 0.01:0.8:4000, 0.001:0.7:8000"

SMALL_CFG = f"""
# small smoke-test grid
graph.model = ER
graph.d = 6
graph.k = 2
noise.family = gaussian
noise.profile = ev
data.n = 300
fit.methods = colide_ev, ls_baseline
fit.schedule = {FAST_SCHED}
run.seeds = 0, 1
"""

# a short single stage with a low threshold leaves a cycle in the estimate
CYCLIC_CFG = """
graph.d = 10
graph.k = 4
fit.schedule = 1:1:300
fit.lr = 0.03
fit.threshold = 0.1
run.seeds = 0
"""


class TestConfigParsing:
    def test_full_roundtrip(self):
        cfg = parse_config(SMALL_CFG)
        assert cfg.graph.d == 6
        assert cfg.methods == ("colide_ev", "ls_baseline")
        assert cfg.seeds == (0, 1)
        assert isinstance(cfg.schedule, StageSchedule)
        assert cfg.schedule.stages[0] == (1.0, 1.0, 4000)

    def test_defaults(self):
        cfg = parse_config("graph.d = 10")
        assert cfg.graph.model == "ER"
        assert cfg.n == 1000
        assert cfg.lam == 0.05

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("graph.shape = torus")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("graph.d = 5\ngraph.d = 6")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config("graph.d: 5")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# note\ngraph.d = 7  # trailing\n\n")
        assert cfg.graph.d == 7

    def test_weight_ranges(self):
        cfg = parse_config("graph.weight_ranges = 0.3:0.9, -0.9:-0.3")
        assert cfg.graph.weight_ranges == ((0.3, 0.9), (-0.9, -0.3))

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            parse_config("fit.methods = gradient_boosting")

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            parse_config("run.seeds = 1, 1")

    def test_faults_are_config_errors(self):
        for text in ("graph.shape = torus", "graph.d = 5\ngraph.d = 6", "graph.d: 5",
                     "graph.d = five", "data.standardize = maybe", "graph.d = 1",
                     "data.n_sweep = 100, 0", "data.n = 1\ndata.standardize = true",
                     "data.n_sweep = 40, 1\ndata.standardize = true", "fit.methods = gradient_boosting",
                     "run.jobs = 0", "fit.methods = colide_ev, colide_ev", "data.n_sweep = 100, 100",
                     "noise.variance_range = 0.5:10, 20:30", "run.seeds = 0, -1", "run.master_seed = -3",
                     *BAD_FIT_LINES, *NON_FINITE_LINES):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_absent_keys_keep_the_dataclass_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig(graph=GraphModelSpec(model="ER", d=20, k=2.0),
                                       noise=NoiseSpec())

    # a renamed or retired config key must not leave a shipped preset unreadable
    @pytest.mark.parametrize("path", [*sorted((ROOT / "configs").glob("*.cfg")),
                                      ROOT / "perfbench" / "grid_d20.cfg"], ids=lambda p: str(p.relative_to(ROOT)))
    def test_shipped_configs_parse(self, path):
        assert read_config(path).methods


class TestGenerateInstance:
    def _cfg(self, **kw):
        return ExperimentConfig(graph=GraphModelSpec(model="ER", d=10, k=2),
                                noise=NoiseSpec(), **kw)

    def test_instance_is_consistent(self):
        W, sigmas, ds = generate_instance(self._cfg(n=200), seed=0)
        assert is_dag(W)
        assert ds.X.shape == (10, 200)
        assert sigmas.shape == (10,)

    def test_standardized_scales_are_the_standardized_rows_noise_sd(self):
        W_raw, sigmas_raw, raw = generate_instance(self._cfg(n=2000), seed=0)
        W, sigmas, ds = generate_instance(self._cfg(n=2000, standardize=True), seed=0)
        assert np.array_equal(W, W_raw)
        assert np.array_equal(ds.X, standardize(raw).X)
        assert np.array_equal(sigmas, sigmas_raw / raw.X.std(axis=1))
        # the raw residuals are the noise draws; each standardized row divides its own by the row's sd
        noise_sd = (raw.X - W.T @ raw.X).std(axis=1) / raw.X.std(axis=1)
        assert np.allclose(sigmas, noise_sd, rtol=0.1)

    def test_seed_changes_instance(self):
        W0, _, d0 = generate_instance(self._cfg(), 0)
        W1, _, d1 = generate_instance(self._cfg(), 1)
        assert not np.array_equal(W0, W1) or not np.array_equal(d0.X, d1.X)

    def test_reproducible(self):
        W0, s0, d0 = generate_instance(self._cfg(), 3)
        W1, s1, d1 = generate_instance(self._cfg(), 3)
        assert np.array_equal(W0, W1)
        assert np.array_equal(d0.X, d1.X)

    def test_n_defaults_to_config_and_must_be_positive(self):
        assert generate_instance(self._cfg(n=150), 0, n=None)[2].n == 150
        for n in (0, -5):
            with pytest.raises(ValueError):
                generate_instance(self._cfg(n=150), 0, n=n)

    def test_n_change_keeps_graph(self):
        # independent purpose streams: sample size never perturbs the graph
        W0, _, _ = generate_instance(self._cfg(n=100), 0)
        W1, _, _ = generate_instance(self._cfg(n=500), 0)
        assert np.array_equal(W0, W1)


@pytest.fixture(scope="module")
def records():
    return run_grid(parse_config(SMALL_CFG))


class TestRunGrid:
    def test_record_count(self, records):
        cells = [r for r in records if not r.get("aggregate")]
        aggs = [r for r in records if r.get("aggregate")]
        assert len(cells) == 4  # 2 seeds x 2 methods
        assert len(aggs) == 2

    def test_records_echo_config(self, records):
        for r in records:
            if r.get("aggregate"):
                continue
            assert r["graph.d"] == 6
            assert r["data.n"] == 300
            assert "seed" in r and "method" in r

    def test_record_config_keys_are_config_file_keys(self, records):
        # run.jobs and out.path change no result, so records leave them out
        recorded = set(_CONFIG_KEYS) - {"run.jobs", "out.path"}
        for r in records:
            if not r.get("aggregate"):
                assert {k for k in r if "." in k} == recorded

    def test_metrics_present(self, records):
        for r in records:
            if r.get("aggregate"):
                continue
            assert "shd" in r and "tpr" in r and "noise_rel_error" in r

    def test_aggregate_math(self, records):
        cells = [r for r in records
                 if r.get("method") == "colide_ev" and not r.get("aggregate")]
        agg = next(r for r in records
                   if r.get("aggregate") and r["method"] == "colide_ev")
        assert agg["runs"] == 2
        assert agg["shd_mean"] == pytest.approx(np.mean([r["shd"] for r in cells]))

    def test_deterministic_rerun(self, records):
        again = run_grid(parse_config(SMALL_CFG))
        assert _strip_times(records) == _strip_times(again)

    def test_parallel_matches_serial(self, records):
        # 1 job: one stack of all 4 cells; 2 jobs: one stack per seed, spanning both
        # methods; 3 jobs: stacks of 1, 1 and 2 cells
        for jobs in (2, 3):
            par = run_grid(parse_config(SMALL_CFG + f"run.jobs = {jobs}\n"))
            assert _strip_times(par) == _strip_times(records)

    @pytest.mark.parametrize("methods, jobs, workers", [("colide_ev, colide_nv, ls_baseline", 8, [3]),
                                                        ("colide_ev", 4, [])], ids=["3-cells-8-jobs", "1-cell-4-jobs"])
    def test_pool_has_one_worker_per_stack(self, monkeypatch, methods, jobs, workers):
        # a pool forks all its workers at the first submit, so it is sized by the stacks, and one
        # stack runs with no pool; the fake pool maps in this process and starts nothing
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        text = f"graph.d = 4\ngraph.k = 1\ndata.n = 50\nfit.methods = {methods}\nfit.schedule = 1:1:20\nrun.seeds = 0\n"
        serial = run_grid(parse_config(text))
        monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
        pooled = run_grid(parse_config(text + f"run.jobs = {jobs}\n"))
        assert opened == workers
        assert payload_bytes(pooled) == payload_bytes(serial)

    def test_stacks_cut_only_as_far_as_the_pool_needs(self):
        # min(jobs, cells) stacks, sizes differing by at most 1, that cut the cells in order
        cells = [(seed, m, None) for seed in range(4) for m in ("a", "b", "c")]
        for jobs in range(1, 15):
            stacks = _stacks(cells, jobs)
            sizes = [len(stack) for stack in stacks]
            assert len(stacks) == min(jobs, len(cells))
            assert max(sizes) - min(sizes) <= 1
            assert [cell for stack in stacks for cell in stack] == cells
        assert [len(stack) for stack in _stacks(cells, 5)] == [2, 2, 3, 2, 3]


def _strip_times(records):
    out = []
    for r in records:
        r = dict(r)
        r.pop("wall_time_ms", None)
        out.append(r)
    return out


SWEEP_CFG = SMALL_CFG + "data.n_sweep = 100, 200\n"


@pytest.fixture(scope="module")
def sweep_records():
    return run_grid(parse_config(SWEEP_CFG))


class TestNoiseStudy:
    """data.n_sweep makes the sample size a grid axis."""

    def test_per_n_aggregates(self, sweep_records):
        aggs = [r for r in sweep_records if r.get("aggregate")]
        assert sorted({r["n"] for r in aggs}) == [100, 200]
        assert len(aggs) == 4  # 2 n values x 2 methods
        cells = [r for r in sweep_records if not r.get("aggregate")]
        assert len(cells) == 8
        assert all(r["noise_rel_error"] is not None for r in cells)

    def test_each_size_is_followed_by_its_aggregates(self, sweep_records):
        sizes = [r["n"] for r in sweep_records]
        assert sizes == [100] * 6 + [200] * 6
        assert [bool(r.get("aggregate")) for r in sweep_records[:6]] == [False] * 4 + [True] * 2

    def test_plain_grid_aggregates_carry_no_n(self, records):
        assert all("n" not in r for r in records if r.get("aggregate"))

    def test_parallel_sweep_matches_serial(self, sweep_records):
        # a stack mixes the sizes of the sweep
        for jobs in (2, 3):
            par = run_grid(parse_config(SWEEP_CFG + f"run.jobs = {jobs}\n"))
            assert _strip_times(par) == _strip_times(sweep_records)


# signed zeros, the smallest subnormal, the smallest normal and the largest finite float64
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_CELLS = hs.one_of(hs.sampled_from(_EDGE_FLOATS), hs.floats(allow_nan=False, allow_infinity=False))


class TestDatasetCsv:
    # the file holds X^T, so its rows are the n >= 2 samples
    @given(X=hnp.arrays(np.float64, hs.tuples(hs.integers(1, 4), hs.integers(2, 6)), elements=_CELLS),
           header=hs.booleans())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, tmp_path_factory, X, header):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_dataset_csv(Dataset(X=X), path)
        if header:
            path.write_text(",".join(f"x{i}" for i in range(len(X))) + "\n" + path.read_text())
        back = load_dataset_csv(path, has_header=header)
        assert np.array_equal(back.X, X)
        assert np.array_equal(np.signbit(back.X), np.signbit(X))
        assert b"\r" not in path.read_bytes()

    def test_rows_are_samples(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        ds = load_dataset_csv(path)
        assert ds.d == 2 and ds.n == 3
        assert np.array_equal(ds.X[:, 0], [1.0, 2.0])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_dataset_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nx,4\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset_csv(path)


class TestEmitResults:
    def _records(self):
        return [{"method": "colide_ev", "seed": 0, "shd": 1, "shd_normalized": 0.1,
                 "shd_c": 1, "sid": 2, "tpr": 0.9, "fdr": 0.0,
                 "noise_rel_error": 0.05, "edge_count_est": 5},
                {"aggregate": True, "method": "colide_ev", "runs": 1,
                 "shd_mean": 1.0, "shd_std": 0.0}]

    def test_jsonl_with_meta_hash(self, tmp_path):
        path = tmp_path / "out.jsonl"
        h = emit_results(self._records(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        meta = json.loads(lines[-1])
        assert meta["meta"] is True
        assert meta["content_hash"] == h
        assert "written_at" in meta

    def test_hash_excludes_timestamp(self, tmp_path):
        h1 = emit_results(self._records(), tmp_path / "a.jsonl")
        h2 = emit_results(self._records(), tmp_path / "b.jsonl")
        assert h1 == h2

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "out.jsonl"
        emit_results(self._records(), path)
        summary = (tmp_path / "out.jsonl.summary.csv").read_bytes().decode("utf-8")
        assert "colide_ev" in summary
        assert "1±0" in summary
        assert "\r" not in summary


class TestFailedCells:
    def test_warm_start_outside_domain_is_an_error_row(self):
        # stage 0 ends outside stage 1's log-det domain (s = 0.2): the fit fails,
        # the grid records the failure and carries on
        cfg = parse_config("graph.d = 10\ngraph.k = 4\ndata.n = 500\n"
                           "fit.methods = colide_ev\nfit.schedule = 1:1:2000, 0.1:0.2:200\n"
                           "run.seeds = 0\n")
        cell, agg = run_grid(cfg)
        assert "warm start" in cell["error"]
        assert agg["aggregate"] and agg["runs"] == 0

    def test_one_failed_cell_leaves_its_stack_alone(self):
        # seed 2's stage-0 estimate is outside stage 1's domain (s = 0.5); the
        # other cells of its stack get the records they get as stacks of one
        cfg = parse_config("graph.d = 6\ngraph.k = 3\ndata.n = 200\nfit.lr = 0.03\n"
                           "fit.methods = colide_ev\nfit.schedule = 1:1:200, 0.1:0.5:50\n"
                           "run.seeds = 0, 1, 2, 3, 4\n")
        cells = [r for r in run_grid(cfg) if not r.get("aggregate")]
        assert ["error" in r for r in cells] == [False, False, True, False, False]
        assert "warm start" in cells[2]["error"]
        for r in cells:
            alone = _run_stack(cfg, [(r["seed"], "colide_ev", None)])
            assert _strip_times([r]) == _strip_times(alone)

    def test_cyclic_estimate_is_an_error_row(self):
        cell, agg = run_grid(parse_config(CYCLIC_CFG))
        assert "cyclic estimate" in cell["error"]
        assert agg["aggregate"] and agg["runs"] == 0

    def test_edgeless_truth_is_an_error_row(self):
        # seed 8 draws an ER graph with no edges: TPR is undefined
        cfg = parse_config("graph.d = 4\ngraph.k = 1\ndata.n = 50\nfit.schedule = 1:1:50\n"
                           "fit.methods = colide_ev\nrun.seeds = 8\n")
        cell, agg = run_grid(cfg)
        assert "no edges" in cell["error"]
        assert agg["aggregate"] and agg["runs"] == 0


@hs.composite
def grid_configs(draw, min_seeds=1):
    """Small grids over every graph model, noise profile, method set, sweep and step size.

    Stages stop early at lr = 0.05; larger steps stall the domain guard, leave a
    later stage's domain at its warm start or leave a cycle in the estimate.
    """
    d = draw(hs.integers(2, 6))
    return ExperimentConfig(
        graph=GraphModelSpec(model=draw(hs.sampled_from(["ER", "SF"])), d=d,
                             k=1 + draw(hs.sampled_from([0.0, 0.5, 0.9])) * (d - 2)),
        noise=NoiseSpec(profile=draw(hs.sampled_from(["ev", "nv"]))), n=draw(hs.integers(5, 60)),
        methods=tuple(draw(hs.lists(hs.sampled_from(METHODS), min_size=1, max_size=3, unique=True))),
        lr=draw(hs.sampled_from([3e-4, 0.05, 1.0, 1e3])), threshold=draw(hs.sampled_from([0.05, 0.3, 1.0])),
        standardize=draw(hs.booleans()),
        schedule=StageSchedule(stages=((1.0, 1.0, 100), (0.1, 0.5, 100), (0.01, 0.3, 50))),
        seeds=tuple(draw(hs.lists(hs.integers(0, 99), min_size=min_seeds, max_size=3, unique=True))),
        n_sweep=tuple(draw(hs.lists(hs.integers(5, 60), max_size=2, unique=True))),
        master_seed=draw(hs.integers(0, 2 ** 16)))


class TestGridContract:
    @settings(max_examples=25, deadline=None)
    @given(cfg=grid_configs())
    def test_one_record_per_cell_and_aggregates_count_clean_cells_property(self, cfg):
        records = run_grid(cfg)
        sizes = cfg.n_sweep or [cfg.n]
        cells = [r for r in records if not r.get("aggregate")]
        assert sorted((r["seed"], r["method"], r["n"]) for r in cells) == sorted(
            (seed, m, size) for seed in cfg.seeds for m in cfg.methods for size in sizes)
        for r in cells:
            assert "error" in r or set(METRIC_KEYS) <= set(r)
        aggs = [r for r in records if r.get("aggregate")]
        assert sorted((r["method"], r.get("n", cfg.n)) for r in aggs) == sorted(
            (m, size) for m in cfg.methods for size in sizes)
        for agg in aggs:
            assert agg["runs"] == sum(1 for r in cells if r["method"] == agg["method"]
                                      and r["n"] == agg.get("n", cfg.n) and "error" not in r)

    @settings(max_examples=25, deadline=None)
    @given(cfg=grid_configs())
    def test_noise_error_is_against_the_instances_own_sigma_property(self, cfg):
        # a one-value scale is scored against the RMS sigma, a per-node one node by node
        for r in run_grid(cfg):
            if r.get("aggregate") or "error" in r:
                continue
            sigma = generate_instance(cfg, r["seed"], r["n"])[1]
            scale = r.get("sigma_estimate", r.get("sigma_posthoc"))
            if len(scale) == 1:
                sigma = np.sqrt(np.mean(sigma ** 2))
            assert r["noise_rel_error"] == pytest.approx(noise_error(scale, sigma), rel=1e-12)

    @settings(max_examples=5, deadline=None)
    @given(cfg=grid_configs(min_seeds=2))  # two or more cells: one stack at jobs 1, two at jobs 2
    def test_payload_is_the_same_at_one_and_two_jobs_property(self, cfg):
        assert payload_bytes(run_grid(cfg)) == payload_bytes(run_grid(replace(cfg, jobs=2)))


class TestAggregateEdgeCases:
    def test_failed_cells_excluded(self):
        records = [
            {"method": "colide_ev", "shd": 2, "tpr": 1.0},
            {"method": "colide_ev", "error": "diverged"},
        ]
        rows = aggregate(records, ("colide_ev",))
        assert rows[0]["runs"] == 1
        assert rows[0]["shd_mean"] == 2.0
