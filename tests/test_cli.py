import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from colide import bench
from colide.bench import ExperimentConfig, generate_instance, parse_config, run_grid, save_dataset_csv
from colide.cli import main
from colide.graphs import GraphModelSpec, load_adjacency_csv, save_adjacency_csv
from colide.sem import Dataset, NoiseSpec
from colide.solver import METHODS

from helpers import BAD_FIT_LINES, NON_FINITE_LINES

FAST_SCHED = "1:1:4000, 0.1:0.9:4000, 0.01:0.8:4000, 0.001:0.7:8000"

CFG = f"""
graph.model = ER
graph.d = 6
graph.k = 2
data.n = 300
fit.schedule = {FAST_SCHED}
run.seeds = 0
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(CFG)
    return p


class TestSimulateFitEval:
    def test_end_to_end(self, tmp_path, cfg_path, capsys):
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg_path),
                     "--seed", "0", "--out", prefix]) == 0
        assert (tmp_path / "run.data.csv").exists()
        assert (tmp_path / "run.truth.csv").exists()
        noise = json.loads((tmp_path / "run.noise.json").read_text())
        assert len(noise["true_sigmas"]) == 6

        assert main(["fit", "--data", f"{prefix}.data.csv",
                     "--method", "colide_ev", "--out", prefix]) == 0
        W = load_adjacency_csv(f"{prefix}.adjacency.csv")
        assert W.shape == (6, 6)
        scales = json.loads((tmp_path / "run.scales.json").read_text())
        assert scales["sigma_estimate"][0] > 0

        assert main(["eval", "--est", f"{prefix}.adjacency.csv",
                     "--truth", f"{prefix}.truth.csv",
                     "--out", str(tmp_path / "metrics.json")]) == 0
        report = json.loads((tmp_path / "metrics.json").read_text())
        assert {"shd", "sid", "tpr", "fdr"} <= set(report)

    def test_eval_self_is_zero(self, tmp_path, cfg_path, capsys):
        prefix = str(tmp_path / "x")
        main(["simulate", "--config", str(cfg_path), "--out", prefix])
        capsys.readouterr()  # discard the simulate status line
        main(["eval", "--est", f"{prefix}.truth.csv",
              "--truth", f"{prefix}.truth.csv"])
        report = json.loads(capsys.readouterr().out)
        assert report["shd"] == 0 and report["sid"] == 0


    @pytest.mark.parametrize("method", METHODS)
    def test_scales_file_holds_the_grid_record_fit_fields(self, tmp_path, capsys, method):
        cfg = parse_config(f"graph.d = 5\ndata.n = 200\nfit.methods = {method}\nrun.seeds = 0\n")
        save_dataset_csv(generate_instance(cfg, 0)[2], tmp_path / "data.csv")
        assert main(["fit", "--data", str(tmp_path / "data.csv"), "--method", method,
                     "--out", str(tmp_path / "run")]) == 0
        scales = json.loads((tmp_path / "run.scales.json").read_text())
        record = run_grid(cfg)[0]
        scale_key = "sigma_posthoc" if method == "ls_baseline" else "sigma_estimate"
        assert set(scales) == {"method", "wall_time_ms", "iterations", scale_key}
        assert scales["method"] == method
        fields = ("iterations", scale_key)
        assert [scales[k] for k in fields] == [record[k] for k in fields]

    def test_eval_has_no_size_ceiling(self, tmp_path, capsys):
        d = 201
        est, truth = tmp_path / "est.csv", tmp_path / "truth.csv"
        np.savetxt(est, np.zeros((d, d)), delimiter=",")
        np.savetxt(truth, np.eye(d, k=1), delimiter=",")
        assert main(["eval", "--est", str(est), "--truth", str(truth)]) == 0
        # every ordered pair i < j of the chain is a missed effect
        assert json.loads(capsys.readouterr().out)["sid"] == d * (d - 1) // 2


class TestBenchCommand:
    def test_bench_writes_records(self, tmp_path, cfg_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["bench", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["meta"] is True
        assert (tmp_path / "results.jsonl.summary.csv").exists()

    def test_bench_without_out_is_config_error(self, cfg_path, capsys):
        assert main(["bench", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "config error: no output path (use --out or out.path)\n"

    def test_bench_runs_the_sample_size_sweep(self, tmp_path, capsys):
        p = tmp_path / "sweep.cfg"
        p.write_text(CFG + "data.n_sweep = 100, 200\n")
        out = tmp_path / "sweep.jsonl"
        assert main(["bench", "--config", str(p), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()[:-1]]
        assert [r["n"] for r in rows if r.get("aggregate")] == [100, 200]
        summary = (tmp_path / "sweep.jsonl.summary.csv").read_text().splitlines()
        assert summary[0].split(",")[0] == "n"
        assert {line.split(",")[0] for line in summary[1:]} == {"100", "200"}

    def test_cyclic_estimate_does_not_abort_the_grid(self, tmp_path, capsys):
        p = tmp_path / "cyclic.cfg"
        p.write_text("graph.d = 10\ngraph.k = 4\nfit.schedule = 1:1:300\n"
                     "fit.lr = 0.03\nfit.threshold = 0.1\nrun.seeds = 0\n")
        out = tmp_path / "cyclic.jsonl"
        assert main(["bench", "--config", str(p), "--out", str(out)]) == 0
        assert "cyclic estimate" in json.loads(out.read_text().splitlines()[0])["error"]


class TestExitCodes:
    def test_bad_config_key(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("graph.shape = torus\n")
        assert main(["bench", "--config", str(p), "--out", "x"]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, cfg_path, tmp_path, capsys, jobs):
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--jobs", jobs]) == 1
        assert "run.jobs must be at least 1" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "absent.cfg"), "--out", "x"]) == 1

    def test_nan_in_data_file(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("1,2\nnan,4\n3,5\n")
        assert main(["fit", "--data", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_zero_column_under_nv(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text("1,0\n2,0\n3,0\n")
        assert main(["fit", "--data", str(p), "--method", "colide_nv",
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_data_file(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_ragged_data_file(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        assert main(["fit", "--data", str(p),
                     "--out", str(tmp_path / "o")]) == 2

    def test_eval_mismatched_shapes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        np.savetxt(a, np.zeros((3, 3)), delimiter=",")
        np.savetxt(b, np.zeros((4, 4)), delimiter=",")
        assert main(["eval", "--est", str(a), "--truth", str(b)]) == 2

    @pytest.mark.parametrize("cyclic", ["--est", "--truth"])
    def test_eval_cyclic_graph(self, tmp_path, capsys, cyclic):
        loop, chain = tmp_path / "loop.csv", tmp_path / "chain.csv"
        np.savetxt(loop, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], delimiter=",")
        np.savetxt(chain, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], delimiter=",")
        paths = {"--est": chain, "--truth": chain, cyclic: loop}
        assert main(["eval", "--est", str(paths["--est"]),
                     "--truth", str(paths["--truth"])]) == 2

    @pytest.mark.parametrize("reason", ["non-numeric", "ragged", "empty", "square"])
    @pytest.mark.parametrize("bad", ["--est", "--truth"])
    def test_eval_malformed_adjacency_file(self, tmp_path, capsys, reason, bad):
        chain, broken = tmp_path / "chain.csv", tmp_path / "broken.csv"
        np.savetxt(chain, [[0, 1], [0, 0]], delimiter=",")
        broken.write_text({"non-numeric": "0,1\n0,x\n", "ragged": "0,1\n0\n", "empty": "",
                           "square": "0,1,0\n0,0,1\n"}[reason])
        paths = {"--est": chain, "--truth": chain, bad: broken}
        assert main(["eval", "--est", str(paths["--est"]),
                     "--truth", str(paths["--truth"])]) == 2
        assert reason in capsys.readouterr().err

    def test_eval_edgeless_truth(self, tmp_path, capsys):
        chain, empty = tmp_path / "chain.csv", tmp_path / "empty.csv"
        np.savetxt(chain, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], delimiter=",")
        np.savetxt(empty, np.zeros((3, 3)), delimiter=",")
        assert main(["eval", "--est", str(chain), "--truth", str(empty)]) == 2

    def test_fit_standardize(self, tmp_path, capsys):
        X = generate_instance(ExperimentConfig(graph=GraphModelSpec(model="ER", d=4, k=1),
                                               noise=NoiseSpec(), n=200), seed=0)[2].X
        good, flat = tmp_path / "good.csv", tmp_path / "flat.csv"
        save_dataset_csv(Dataset(X=X), good)
        save_dataset_csv(Dataset(X=np.vstack([X[:3], np.full((1, 200), 2.5)])), flat)
        prefix = str(tmp_path / "std")
        assert main(["fit", "--data", str(good), "--standardize", "--out", prefix]) == 0
        assert load_adjacency_csv(f"{prefix}.adjacency.csv").shape == (4, 4)
        assert load_adjacency_csv(f"{prefix}.adjacency_raw.csv").shape == (4, 4)
        assert main(["fit", "--data", str(flat), "--standardize", "--out", prefix]) == 2
        assert "cannot standardize a constant row" in capsys.readouterr().err

    def test_fit_negative_lambda(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,5\n4,4\n")
        assert main(["fit", "--data", str(p), "--lambda", "-1", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    @pytest.mark.parametrize("tau", ["-1", "nan"])
    def test_eval_bad_threshold(self, tmp_path, capsys, tau):
        # the estimate is thresholded by the one solver function, which rejects tau < 0 and NaN
        chain = tmp_path / "chain.csv"
        np.savetxt(chain, [[0, 1], [0, 0]], delimiter=",")
        assert main(["eval", "--est", str(chain), "--truth", str(chain), "--threshold", tau]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: need threshold >= 0")

    def test_overflowing_gradient_is_a_fit_divergence(self, tmp_path, capsys):
        p = tmp_path / "large.csv"
        save_dataset_csv(Dataset(X=1e80 * np.random.default_rng(0).standard_normal((3, 20))), p)
        assert main(["fit", "--data", str(p), "--method", "ls_baseline", "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["fit diverged: gradient overflow (stage 0, iteration 2)"]

    def test_overflowing_data_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        save_dataset_csv(Dataset(X=1e155 * np.random.default_rng(0).standard_normal((3, 20))), p)
        assert main(["fit", "--data", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: sample covariance overflows")

    def test_overflowing_trace_is_a_data_error(self, tmp_path, capsys):
        # one sample at 1e154: the covariance (1e308) is finite, its trace and the colide_ev floor are not
        p = tmp_path / "huge-trace.csv"
        save_dataset_csv(Dataset(X=np.full((3, 1), 1e154)), p)
        assert main(["fit", "--data", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: sample covariance overflows: data values too large"]

    @pytest.mark.parametrize("line", BAD_FIT_LINES)
    def test_bad_fit_setting_stops_bench_before_any_instance(self, tmp_path, capsys, monkeypatch, line):
        p = tmp_path / "bad.cfg"
        p.write_text(CFG + line + "\n")
        monkeypatch.setattr(bench, "generate_instance", mock.Mock())
        assert main(["bench", "--config", str(p), "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not bench.generate_instance.called

    @pytest.mark.parametrize("lines", NON_FINITE_LINES)
    def test_non_finite_config_value(self, tmp_path, capsys, lines):
        # rejected when the config is read, not by a traceback or an error row in every cell;
        # CFG's own line for a key the fault sets goes, so the fault is not a duplicate key
        keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
        kept = [line for line in CFG.splitlines() if line.partition("=")[0].strip() not in keys]
        p = tmp_path / "bad.cfg"
        p.write_text("\n".join(kept + [lines]) + "\n")
        assert main(["bench", "--config", str(p), "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_fit_one_column(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n3\n")
        assert main(["fit", "--data", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_sachs_missing_files(self, tmp_path, capsys):
        assert main(["sachs", "--data", str(tmp_path / "no.csv"),
                     "--truth", str(tmp_path / "no2.csv")]) == 2

    def test_sachs_repeated_method(self, tmp_path, capsys):
        # a repeated --method is a config error before any file is read, as a repeated fit.methods entry is
        assert main(["sachs", "--data", str(tmp_path / "no.csv"), "--truth", str(tmp_path / "no2.csv"),
                     "--method", "colide_ev", "--method", "colide_ev"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: each method at most once")


@pytest.fixture(scope="module")
def sachs_files(tmp_path_factory):
    """Simulated stand-ins for the flow-cytometry files: ER d=5, n=300, a header row."""
    cfg = ExperimentConfig(graph=GraphModelSpec(model="ER", d=5, k=2), noise=NoiseSpec(), n=300)
    W_true, _, ds = generate_instance(cfg, 0)
    folder = tmp_path_factory.mktemp("sachs")
    data, truth = folder / "data.csv", folder / "truth.csv"
    save_dataset_csv(ds, data)
    data.write_text("x0,x1,x2,x3,x4\n" + data.read_text())
    save_adjacency_csv(W_true, truth)
    return str(data), str(truth)


class TestSachsCommand:
    @pytest.mark.slow
    def test_records_carry_the_scale(self, sachs_files, tmp_path, capsys):
        data, truth = sachs_files
        out = tmp_path / "sachs.jsonl"
        assert main(["sachs", "--data", data, "--truth", truth, "--out", str(out)]) == 0
        rows = {r["method"]: r for r in map(json.loads, out.read_text().splitlines()[:-1])}
        nv = rows["colide_nv"]
        assert "error" not in nv
        assert len(nv["sigma_estimate"]) == 5
        assert {"shd", "shd_c", "sid", "tpr", "fdr", "iterations"} <= set(nv)
        assert len(rows["colide_ev"]["sigma_estimate"]) == 1

    @pytest.mark.slow
    def test_cyclic_estimates_are_error_rows(self, sachs_files, capsys):
        data, truth = sachs_files
        assert main(["sachs", "--data", data, "--truth", truth, "--threshold", "0"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["method"] for r in rows] == ["colide_ev", "colide_nv"]
        assert all("cyclic estimate" in r["error"] for r in rows)

    @pytest.mark.slow
    def test_zero_column_is_the_nv_records_error(self, sachs_files, tmp_path, capsys):
        # colide_nv has no usable floor for an all-zero variable; colide_ev fits the data
        data, truth = sachs_files
        ds = bench.load_dataset_csv(data, has_header=True)
        ds.X[0] = 0.0
        path = tmp_path / "zero.csv"
        save_dataset_csv(ds, path)
        path.write_text("x0,x1,x2,x3,x4\n" + path.read_text())
        assert main(["sachs", "--data", str(path), "--truth", truth]) == 0
        ev, nv = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert "error" not in ev and {"shd", "sid", "sigma_estimate"} <= set(ev)
        assert nv["error"] == "identically-zero variable has no usable noise floor"

    @pytest.mark.parametrize("truth", [np.eye(4, k=1), np.eye(5, k=1) + np.eye(5, k=-4)],
                             ids=["four-nodes", "cyclic"])
    def test_bad_truth_is_a_data_error(self, sachs_files, tmp_path, capsys, truth):
        data, _ = sachs_files
        path = tmp_path / "truth.csv"
        np.savetxt(path, truth, delimiter=",")
        assert main(["sachs", "--data", data, "--truth", str(path)]) == 2
        assert "ground truth must be a DAG" in capsys.readouterr().err


def _csv(rows):
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _names(d):
    return [f"v{k}" for k in range(d)]


@hs.composite
def _bad_table(draw, rows, cols, header=False):
    """A numeric CSV file that the codec rejects: empty, header-only, ragged, or with a NaN or text cell."""
    fault = draw(hs.sampled_from(["empty", "header-only", "ragged", "nan", "text"]))
    if fault in ("empty", "header-only"):
        return "" if fault == "empty" else _csv([_names(cols)])
    cells = [[draw(hs.floats(-2.0, 2.0)) for _ in range(cols)] for _ in range(rows)]
    i, j = draw(hs.integers(0, rows - 1)), draw(hs.integers(0, cols - 1))
    if fault == "ragged":
        cells[i].pop()
    else:
        cells[i][j] = {"nan": "nan", "text": "x"}[fault]
    return _csv([_names(cols)] * header + cells)


@hs.composite
def _dag(draw, d):
    """A d-node DAG adjacency with the edge 0 -> 1 and random edges i -> j for the other i < j."""
    return [[int((i, j) == (0, 1) or i < j and draw(hs.booleans())) for j in range(d)] for i in range(d)]


@hs.composite
def _bad_graph(draw, d):
    """An adjacency file that is a data error against a d-node dataset or graph."""
    fault = draw(hs.sampled_from(["table", "non-square", "cyclic", "size mismatch"]))
    if fault == "table":
        return draw(_bad_table(d, d))
    A = draw(_dag(d + (fault == "size mismatch")))
    if fault == "cyclic":
        i, j = sorted(draw(hs.lists(hs.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
        A[j][i] = A[i][j] = 1
    return _csv(A[:-1] if fault == "non-square" else A)


@hs.composite
def _bad_runs(draw):
    """(argv, {file name: text}) of a CLI run on faulty files or a faulty config."""
    command, d = draw(hs.sampled_from(["fit", "eval", "sachs", "bench"])), draw(hs.integers(2, 4))
    if command == "fit":
        overflowing = _csv([_names(d)] + [["1e155"] * d] * 4)
        data = draw(hs.one_of(_bad_table(draw(hs.integers(2, 6)), d, header=True), hs.just(overflowing)))
        return ["fit", "--data", "data", "--header", "--out", "o"], {"data": data}
    if command == "bench":
        lines = [f"graph.d = {d + 2}", "data.n = 50", "run.seeds = 0"]
        fault = draw(hs.sampled_from(["fit.mu = 1", "graph.shape = torus", lines[0], *BAD_FIT_LINES,
                                      "data.standardize = true\ndata.n_sweep = 40, 1"]))
        lines.insert(draw(hs.integers(0, len(lines))), fault)  # lines[0] again: a duplicate key
        return ["bench", "--config", "cfg", "--out", "o"], {"cfg": "\n".join(lines) + "\n"}
    if command == "eval":
        files = {"est": _csv(draw(_dag(d))), "truth": _csv(draw(_dag(d)))}
        if draw(hs.booleans()):
            files["truth"] = _csv([[0] * d] * d)  # edgeless: a fault only in the truth
        else:
            files[draw(hs.sampled_from(["est", "truth"]))] = draw(_bad_graph(d))
        return ["eval", "--est", "est", "--truth", "truth"], files
    if draw(hs.booleans()):
        files = {"data": draw(_bad_table(5, d, header=True)), "truth": _csv(draw(_dag(d)))}
    else:
        files = {"data": _csv([_names(d)] + [[k + 0.5 * i for k in range(d)] for i in range(20)]),
                 "truth": draw(_bad_graph(d))}
    return ["sachs", "--data", "data", "--truth", "truth"], files


class TestCliContract:
    @settings(max_examples=200, deadline=None)
    @given(run=_bad_runs())
    def test_faulty_input_is_one_config_or_data_error_line_property(self, run):
        argv, files = run
        with tempfile.TemporaryDirectory() as folder:
            for name, text in files.items():
                with open(os.path.join(folder, name), "w") as fh:
                    fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([os.path.join(folder, a) if a in files or a == "o" else a for a in argv])
        expected = "config error:" if argv[0] == "bench" else "data error:"
        assert code == (1 if argv[0] == "bench" else 2)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(expected)
        assert "Traceback" not in out.getvalue() + err.getvalue()
