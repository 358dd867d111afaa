import json

import numpy as np
import pytest

from colide.bench import ExperimentConfig, generate_instance, save_dataset_csv
from colide.cli import main
from colide.graphs import GraphModelSpec, load_adjacency_csv, save_adjacency_csv
from colide.sem import Dataset, NoiseSpec

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
        assert scales["sigma"] > 0

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

    def test_fit_one_column(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n3\n")
        assert main(["fit", "--data", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_sachs_missing_files(self, tmp_path, capsys):
        assert main(["sachs", "--data", str(tmp_path / "no.csv"),
                     "--truth", str(tmp_path / "no2.csv")]) == 2


@pytest.fixture(scope="module")
def sachs_files(tmp_path_factory):
    """Simulated stand-ins for the flow-cytometry files: ER d=5, n=300, a header row."""
    cfg = ExperimentConfig(graph=GraphModelSpec(model="ER", d=5, k=2), noise=NoiseSpec(), n=300)
    W_true, _, ds = generate_instance(cfg, 0)
    folder = tmp_path_factory.mktemp("sachs")
    data, truth = folder / "data.csv", folder / "truth.csv"
    save_dataset_csv(Dataset(X=ds.X, meta={"variables": [f"x{i}" for i in range(5)]}),
                     data, header=True)
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

    @pytest.mark.parametrize("truth", [np.eye(4, k=1), np.eye(5, k=1) + np.eye(5, k=-4)],
                             ids=["four-nodes", "cyclic"])
    def test_bad_truth_is_a_data_error(self, sachs_files, tmp_path, capsys, truth):
        data, _ = sachs_files
        path = tmp_path / "truth.csv"
        np.savetxt(path, truth, delimiter=",")
        assert main(["sachs", "--data", data, "--truth", str(path)]) == 2
        assert "ground truth must be a DAG" in capsys.readouterr().err
