"""Acceptance gate: eleven end-to-end criteria at their stated tolerances.

Each criterion is one test, so the verbose pytest report gives one pass/fail
line per criterion. The heavy desk-scale studies (criteria 6-8, 10, 11) run
real fits and take minutes; everything else finishes in seconds.
"""

import os

import numpy as np
import pytest

from colide.bench import (
    ExperimentConfig,
    generate_instance,
    payload_bytes,
    run_grid,
    run_sachs,
)
from colide.graphs import GraphModelSpec
from colide.metrics import shd, shd_c, sid
from colide.rng import stream
from colide.scores import grad_ldet, h_ldet, sigma_floor_ev, sigma_floor_nv
from colide.sem import Dataset, NoiseSpec, sample_cov
from colide.solver import fit, fit_online

from helpers import (all_dags, fd_grad, method_core, random_dag, random_in_domain, rel_err,
                     shd_bf, sid_bf)
from test_metrics import _vstructs


# ---------------------------------------------------------------------------
# Shared expensive fixtures.
# ---------------------------------------------------------------------------

def _grid6_config():
    return ExperimentConfig(
        graph=GraphModelSpec(model="ER", d=20, k=2),
        noise=NoiseSpec(family="gaussian", profile="ev", variance=1.0),
        n=1000,
        methods=("colide_ev",),
        seeds=tuple(range(10)),
    )


@pytest.fixture(scope="module")
def grid6_runs():
    """Criterion 6's grid, run twice for the determinism check."""
    return run_grid(_grid6_config()), run_grid(_grid6_config())


def test_criterion_01_gradient_finite_differences():
    worst = 0.0
    for d in (4, 8):
        for seed in range(20):
            ds = Dataset(X=stream(101, seed, f"data{d}").standard_normal((d, 60)))
            cov = sample_cov(ds)
            rng = stream(101, seed, f"w{d}")
            sigma = 0.5 + rng.random()
            sigmas = 0.5 + rng.random(d)
            for s in (0.8, 1.0):
                W = random_in_domain(d, s, rng)
                worst = max(
                    worst,
                    rel_err(method_core("colide_ev", "grad", W, ds, sigma),
                            fd_grad(lambda M: method_core("colide_ev", "score", M, ds, sigma), W)),
                    rel_err(method_core("colide_nv", "grad", W, ds, sigmas),
                            fd_grad(lambda M: method_core("colide_nv", "score", M, ds, sigmas), W)),
                    rel_err(method_core("ls_baseline", "grad", W, ds),
                            fd_grad(lambda M: 0.5 * np.trace(
                                (np.eye(d) - M).T @ cov @ (np.eye(d) - M)), W)),
                    rel_err(grad_ldet(W, s),
                            fd_grad(lambda M: h_ldet(M, s), W)),
                )
    assert worst < 1e-5
    print(f"criterion 1 gradients vs finite differences: PASS (max rel err {worst:.2e})")


def test_criterion_02_scale_updates_beat_grid_scan():
    for seed in range(20):
        d = 3 + seed % 3  # d in {3, 4, 5}
        ds = Dataset(X=stream(102, seed, "data").standard_normal((d, 40)))
        W = random_in_domain(d, 1.0, stream(102, seed, "w"))
        resid = ds.X - W.T @ ds.X

        floor = sigma_floor_ev(ds)
        sig = method_core("colide_ev", "scale", W, ds, floor)
        grid = np.arange(floor, 10.0, 1e-4)
        rss = (resid ** 2).sum() / ds.n
        best = grid[np.argmin(rss / (2 * grid) + d * grid / 2)]
        assert (method_core("colide_ev", "score", W, ds, sig, lam=0.1)
                <= method_core("colide_ev", "score", W, ds, best, lam=0.1) + 1e-8)

        floors = sigma_floor_nv(ds)
        sigs = method_core("colide_nv", "scale", W, ds, floors)
        rss_i = (resid ** 2).sum(axis=1) / ds.n
        val = method_core("colide_nv", "score", W, ds, sigs, lam=0.1)
        for i in range(d):
            grid = np.arange(floors[i], 10.0, 1e-4)
            trial = sigs.copy()
            trial[i] = grid[np.argmin(0.5 * rss_i[i] / grid + 0.5 * grid)]
            assert method_core("colide_nv", "score", W, ds, trial, lam=0.1) >= val - 1e-8
    print("criterion 2 closed-form scale updates beat 1e-4 grid scans: PASS")


def test_criterion_03_acyclicity_characterization():
    worst = 0.0
    rng = np.random.default_rng(103)
    for _ in range(100):
        d = int(rng.integers(3, 12))
        A = random_dag(d, rng, p=0.4)
        W = A * rng.normal(size=(d, d))
        for s in (0.7, 1.0):
            worst = max(worst, abs(h_ldet(W, s)))
    assert worst < 1e-9

    for a, b, s in [(0.25, 0.25, 1.0), (0.1, 0.6, 1.0), (0.3, 0.2, 0.8)]:
        W = np.zeros((2, 2))
        W[0, 1], W[1, 0] = np.sqrt(a), np.sqrt(b)
        assert abs(h_ldet(W, s) - (2 * np.log(s) - np.log(s ** 2 - a * b))) < 1e-10
    # reference value for W*W entries a = b = 0.25 at s = 1
    W = np.zeros((2, 2))
    W[0, 1] = W[1, 0] = np.sqrt(0.25)
    assert abs(h_ldet(W, 1.0) - (-np.log(1 - 0.0625))) < 1e-10
    assert abs(h_ldet(W, 1.0) - 0.064539) < 1e-6
    print(f"criterion 3 acyclicity characterization: PASS (max |h| on DAGs {worst:.2e})")


def test_criterion_04_joint_convexity():
    ds = Dataset(X=stream(104, 0, "data").standard_normal((5, 40)))
    worst = -np.inf
    for seed in range(100):
        rng = stream(104, seed, "cvx")
        W1, W2 = rng.normal(size=(2, 5, 5))
        for M in (W1, W2):
            np.fill_diagonal(M, 0.0)
        t = rng.random()
        s1, s2 = 0.1 + 2 * rng.random(2)
        mid = method_core("colide_ev", "score", t * W1 + (1 - t) * W2, ds,
                          t * s1 + (1 - t) * s2, lam=0.05)
        bound = (t * method_core("colide_ev", "score", W1, ds, s1, lam=0.05)
                 + (1 - t) * method_core("colide_ev", "score", W2, ds, s2, lam=0.05))
        worst = max(worst, mid - bound)
        v1, v2 = 0.1 + 2 * rng.random(size=(2, 5))
        mid = method_core("colide_nv", "score", t * W1 + (1 - t) * W2, ds,
                          t * v1 + (1 - t) * v2, lam=0.05)
        bound = (t * method_core("colide_nv", "score", W1, ds, v1, lam=0.05)
                 + (1 - t) * method_core("colide_nv", "score", W2, ds, v2, lam=0.05))
        worst = max(worst, mid - bound)
    assert worst < 1e-9
    print(f"criterion 4 joint convexity spot check: PASS (max violation {worst:.2e})")


def test_criterion_05_metric_bruteforce_agreement():
    for A in all_dags(3):
        for B in all_dags(3):
            Af, Bf = A.astype(float), B.astype(float)
            assert shd(Af, Bf) == shd_bf(A, B)
            assert sid(Af, Bf) == sid_bf(A, B)
            # SHD-C: zero exactly on Markov-equivalent pairs
            same_class = (np.array_equal(A | A.T, B | B.T)
                          and _vstructs(A) == _vstructs(B))
            assert (shd_c(Af, Bf) == 0) == same_class

    rng = np.random.default_rng(105)
    for _ in range(100):
        A = random_dag(4, rng, p=0.45)
        B = random_dag(4, rng, p=0.45)
        assert shd(A.astype(float), B.astype(float)) == shd_bf(A, B)
        assert sid(A.astype(float), B.astype(float)) == sid_bf(A, B)
        same_class = (np.array_equal(A | A.T, B | B.T)
                      and _vstructs(A) == _vstructs(B))
        assert (shd_c(A.astype(float), B.astype(float)) == 0) == same_class
    print("criterion 5 metric brute-force agreement (d=3 exhaustive, d=4 sampled): PASS")


@pytest.mark.slow
def test_criterion_06_desk_scale_recovery(grid6_runs):
    records, _ = grid6_runs
    cells = [r for r in records if not r.get("aggregate")]
    assert len(cells) == 10 and all("error" not in r for r in cells)
    shds = [r["shd"] for r in cells]
    tprs = [r["tpr"] for r in cells]
    assert np.median(shds) <= 3
    assert np.mean(tprs) >= 0.9
    print(f"criterion 6 desk-scale recovery: PASS (median SHD {np.median(shds)}, "
          f"mean TPR {np.mean(tprs):.3f})")


@pytest.mark.slow
def test_criterion_07_heteroscedastic_ordering():
    cfg = ExperimentConfig(
        graph=GraphModelSpec(model="ER", d=50, k=4,
                             weight_ranges=((-1.0, -0.25), (0.25, 1.0))),
        noise=NoiseSpec(family="gaussian", profile="nv",
                        variance_range=(0.5, 10.0)),
        n=1000,
        methods=("colide_nv", "colide_ev", "ls_baseline"),
        seeds=tuple(range(10)),
        jobs=2,  # payloads do not depend on jobs (test_parallel_matches_serial)
    )
    records = run_grid(cfg)
    means = {r["method"]: r["shd_mean"] for r in records if r.get("aggregate")}
    assert means["colide_nv"] <= means["colide_ev"] <= means["ls_baseline"]
    print("criterion 7 heteroscedastic mean-SHD ordering: PASS "
          f"({means['colide_nv']:.1f} <= {means['colide_ev']:.1f} "
          f"<= {means['ls_baseline']:.1f})")


def _noise_curves(profile):
    if profile == "ev":
        graph = GraphModelSpec(model="ER", d=50, k=4)
        noise = NoiseSpec(family="gaussian", profile="ev", variance=5.0)
        concomitant = "colide_ev"
    else:
        graph = GraphModelSpec(model="ER", d=50, k=4,
                               weight_ranges=((-1.0, -0.25), (0.25, 1.0)))
        noise = NoiseSpec(family="gaussian", profile="nv",
                          variance_range=(0.5, 10.0))
        concomitant = "colide_nv"
    cfg = ExperimentConfig(graph=graph, noise=noise,
                           methods=(concomitant, "ls_baseline"),
                           seeds=(0, 1, 2), n_sweep=(250, 500, 1000, 2000), jobs=2)
    records = run_grid(cfg)
    curves = {concomitant: [], "ls_baseline": []}
    for n in cfg.n_sweep:
        for method in curves:
            row = next(r for r in records if r.get("aggregate")
                       and r["method"] == method and r["n"] == n)
            curves[method].append(row["noise_rel_error_mean"])
    return curves[concomitant], curves["ls_baseline"]


def _inversions(seq):
    return sum(1 for a, b in zip(seq, seq[1:]) if b > a + 1e-12)


@pytest.mark.slow
def test_criterion_08_noise_estimation_sweep():
    for profile in ("ev", "nv"):
        conc, ls = _noise_curves(profile)
        assert all(c < b for c, b in zip(conc, ls)), (profile, conc, ls)
        assert _inversions(conc) <= 1, (profile, conc)
        print(f"criterion 8 noise sweep [{profile}]: PASS "
              f"(concomitant {['%.4f' % c for c in conc]} "
              f"< posthoc {['%.4f' % b for b in ls]})")


@pytest.mark.slow
def test_criterion_09_sachs_reproduction():
    data = os.environ.get("COLIDE_SACHS_DATA", "data/sachs.data.csv")
    truth = os.environ.get("COLIDE_SACHS_TRUTH", "data/sachs.truth.csv")
    if not (os.path.exists(data) and os.path.exists(truth)):
        pytest.skip("Sachs dataset not provided (set COLIDE_SACHS_DATA / "
                    "COLIDE_SACHS_TRUTH or place data/sachs.*.csv); the "
                    "harness does not download data")
    records = {r["method"]: r for r in run_sachs(data, truth)}
    assert records["colide_nv"]["shd"] <= 14
    assert records["colide_nv"]["tpr"] >= 0.25
    assert records["colide_ev"]["shd"] <= 15
    print("criterion 9 flow-cytometry reproduction: PASS "
          f"(NV SHD {records['colide_nv']['shd']}, EV SHD {records['colide_ev']['shd']})")


@pytest.mark.slow
def test_criterion_10_online_tracking():
    cfg = ExperimentConfig(
        graph=GraphModelSpec(model="ER", d=50, k=4),
        noise=NoiseSpec(family="gaussian", profile="ev", variance=1.0),
        n=1000,
    )
    _, _, ds = generate_instance(cfg, 0)
    batch = fit(ds, method="colide_ev")
    _, snaps = fit_online(ds, 100, method="colide_ev",
                          epochs_per_stage=[300, 300, 300, 700],
                          snapshot_every=10)
    last_stage = max(s[0] for s in snaps)
    werr, serr = [], []
    for k, _, W, scale in snaps:
        if k == last_stage:
            werr.append(np.linalg.norm(W - batch.W) / np.linalg.norm(batch.W))
            serr.append(abs(scale - batch.scale) / batch.scale)
    head = slice(0, max(1, len(werr) // 10))
    tail = slice(-max(1, len(werr) // 10), None)
    assert np.mean(werr[tail]) < np.mean(werr[head])
    assert np.mean(serr[tail]) < np.mean(serr[head])
    assert serr[-1] < 0.1
    print("criterion 10 online tracking: PASS "
          f"(W err {np.mean(werr[head]):.3f}->{np.mean(werr[tail]):.3f}, "
          f"sigma err {np.mean(serr[head]):.4f}->{serr[-1]:.4f})")


@pytest.mark.slow
def test_criterion_11_grid_determinism(grid6_runs):
    first, second = grid6_runs
    assert payload_bytes(first) == payload_bytes(second)
    print("criterion 11 byte-identical grid payloads on rerun: PASS")
