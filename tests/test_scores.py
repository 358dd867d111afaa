import numpy as np
import pytest

from colide.graphs import GraphModelSpec, assign_edge_weights, sample_er_dag
from colide.rng import stream
from colide.scores import (
    DomainViolation,
    _domain_matrix,
    grad_h_ldet,
    grad_ls_baseline,
    grad_w_ev,
    grad_w_nv,
    h_ldet,
    score_ev,
    score_ls_baseline,
    score_nv,
    sigma_floor_ev,
    sigma_floor_nv,
    sigma_hat_ev,
    sigma_hat_nv,
    stage_objective,
)
from colide.sem import Dataset, sample_cov

from helpers import random_in_domain

FD_STEP = 1e-6
FD_RTOL = 1e-5


def random_dataset(d, n, seed):
    return Dataset(X=stream(9, seed, "data").standard_normal((d, n)))


def fd_grad(f, W, step=FD_STEP):
    """Central finite-difference gradient of a scalar function of W."""
    G = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += step
            Wm[i, j] -= step
            G[i, j] = (f(Wp) - f(Wm)) / (2 * step)
    return G


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


class TestHLdet:
    def test_zero_on_dags(self):
        for seed in range(20):
            B = sample_er_dag(GraphModelSpec(model="ER", d=8, k=3),
                              stream(0, seed, "graph"))
            W = assign_edge_weights(B, ((0.5, 2.0), (-2.0, -0.5)),
                                    stream(0, seed, "weights"))
            for s in (0.7, 1.0):
                assert abs(h_ldet(W, s)) < 1e-9

    def test_two_cycle_closed_form(self):
        # for a 2-cycle with weights a, b: h = 2*log(s) - log(s^2 - ab)
        for a, b, s in [(0.25, 0.25, 1.0), (0.5, 0.3, 1.0), (0.2, 0.4, 0.8)]:
            W = np.zeros((2, 2))
            W[0, 1], W[1, 0] = np.sqrt(a), np.sqrt(b)  # W*W has entries a, b
            expect = 2 * np.log(s) - np.log(s ** 2 - a * b)
            assert abs(h_ldet(W, s) - expect) < 1e-10

    def test_positive_on_cycles(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 2] = W[2, 0] = 0.5
        assert h_ldet(W, 1.0) > 0

    def test_domain_violation(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.5  # ab = 5.06 > s^2
        with pytest.raises(DomainViolation):
            h_ldet(W, 1.0)
        with pytest.raises(DomainViolation):
            grad_h_ldet(W, 1.0)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            h_ldet(np.zeros((2, 2)), 0.0)

    def test_domain_matrix_has_the_bits_of_s_eye_minus_w_squared(self):
        # the solver's iterates depend on every bit of sI - W*W, signed zeros included
        rng = np.random.default_rng(0)
        for d in (2, 7, 30):
            W = rng.normal(size=(d, d))
            W[rng.random((d, d)) < 0.5] = 0.0
            W[0, 1] = -0.0
            for X in (W, W.T, W.astype(np.float32), np.round(3 * W).astype(int)):
                for s in (0.7, 1.0):
                    expect = s * np.eye(d) - X * X
                    got = _domain_matrix(X, s)
                    assert got.dtype == expect.dtype
                    assert got.tobytes() == expect.tobytes()
                    assert np.array_equal(np.signbit(got), np.signbit(expect))


class TestGradients:
    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_w_ev(self, d):
        for seed in range(20):
            ds = random_dataset(d, 60, seed)
            cov = sample_cov(ds)
            W = random_in_domain(d, 1.0, stream(3, seed, "w"))
            sigma = 0.5 + stream(3, seed, "sig").random()
            # score without the l1 term (analytic gradients exclude it)
            f = lambda M: score_ev(M, sigma, ds, 0.0)  # noqa: E731
            assert rel_err(grad_w_ev(W, sigma, cov), fd_grad(f, W)) < FD_RTOL

    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_w_nv(self, d):
        for seed in range(20):
            ds = random_dataset(d, 60, seed)
            cov = sample_cov(ds)
            W = random_in_domain(d, 1.0, stream(4, seed, "w"))
            sigmas = 0.5 + stream(4, seed, "sig").random(d)
            f = lambda M: score_nv(M, sigmas, ds, 0.0)  # noqa: E731
            assert rel_err(grad_w_nv(W, sigmas, cov), fd_grad(f, W)) < FD_RTOL

    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_ls(self, d):
        for seed in range(20):
            ds = random_dataset(d, 60, seed)
            cov = sample_cov(ds)
            W = random_in_domain(d, 1.0, stream(5, seed, "w"))
            f = lambda M: score_ls_baseline(M, ds, 0.0)  # noqa: E731
            assert rel_err(grad_ls_baseline(W, cov), fd_grad(f, W)) < FD_RTOL

    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_h_ldet(self, d):
        for seed in range(20):
            for s in (0.8, 1.0):
                W = random_in_domain(d, s, stream(6, seed, f"w{s}"))
                f = lambda M: h_ldet(M, s)  # noqa: E731
                assert rel_err(grad_h_ldet(W, s), fd_grad(f, W)) < FD_RTOL


class TestScaleUpdates:
    def test_ev_stationary_point(self):
        # at sigma_hat, d(score)/d(sigma) = 0: rss/(2 sigma^2) = d/2
        for seed in range(10):
            ds = random_dataset(5, 40, seed)
            cov = sample_cov(ds)
            W = random_in_domain(5, 1.0, stream(7, seed, "w"))
            sig = sigma_hat_ev(W, cov, floor=1e-9)
            I_W = np.eye(5) - W
            rss = np.trace(I_W.T @ cov @ I_W)
            assert abs(rss / sig ** 2 - 5) < 1e-8

    def test_ev_beats_grid(self):
        # grid oracle computed straight from the residuals, step 1e-4
        for seed in range(20):
            ds = random_dataset(4, 30, seed)
            cov = sample_cov(ds)
            W = random_in_domain(4, 1.0, stream(8, seed, "w"))
            floor = sigma_floor_ev(ds)
            sig = sigma_hat_ev(W, cov, floor)
            resid = ds.X - W.T @ ds.X
            rss = (resid ** 2).sum() / ds.n
            grid = np.arange(floor, 10.0, 1e-4)
            vals = rss / (2 * grid) + ds.d * grid / 2
            best_sigma = grid[np.argmin(vals)]
            assert score_ev(W, sig, ds, 0.1) <= score_ev(W, best_sigma, ds, 0.1) + 1e-8

    def test_nv_beats_grid(self):
        # per-coordinate grid oracle from the residuals, step 1e-4
        for seed in range(20):
            ds = random_dataset(4, 30, seed)
            cov = sample_cov(ds)
            W = random_in_domain(4, 1.0, stream(9, seed, "w"))
            floors = sigma_floor_nv(ds)
            sigs = sigma_hat_nv(W, cov, floors)
            resid = ds.X - W.T @ ds.X
            rss = (resid ** 2).sum(axis=1) / ds.n
            val = score_nv(W, sigs, ds, 0.1)
            for i in range(4):
                grid = np.arange(floors[i], 10.0, 1e-4)
                vals = 0.5 * rss[i] / grid + 0.5 * grid
                trial = sigs.copy()
                trial[i] = grid[np.argmin(vals)]
                assert score_nv(W, trial, ds, 0.1) >= val - 1e-8

    def test_floor_binds(self):
        ds = random_dataset(3, 25, 0)
        cov = sample_cov(ds)
        W = np.zeros((3, 3))
        big = 100.0
        assert sigma_hat_ev(W, cov, big) == big
        assert np.all(sigma_hat_nv(W, cov, np.full(3, big)) == big)

    def test_floors_from_data(self):
        ds = random_dataset(4, 50, 1)
        assert sigma_floor_ev(ds) == pytest.approx(
            np.linalg.norm(ds.X) / np.sqrt(4 * 50) * 1e-2)
        assert np.allclose(sigma_floor_nv(ds),
                           np.sqrt(np.diag(sample_cov(ds))) * 1e-2)

    def test_zero_data_rejected(self):
        ds = Dataset(X=np.zeros((2, 3)) + [[1.0], [0.0]])
        with pytest.raises(ValueError):
            sigma_floor_nv(ds)


class TestConvexity:
    """Joint convexity of the smooth scores in (W, scale) on scale > 0."""

    def _points_ev(self, d, seed):
        rng = stream(11, seed, "cvx")
        W = rng.normal(size=(d, d))
        np.fill_diagonal(W, 0.0)
        return W, 0.1 + 2 * rng.random()

    def test_ev_convex_combinations(self):
        ds = random_dataset(5, 40, 0)
        for seed in range(100):
            W1, s1 = self._points_ev(5, 2 * seed)
            W2, s2 = self._points_ev(5, 2 * seed + 1)
            lam = 0.05
            t = stream(11, seed, "t").random()
            mid = score_ev(t * W1 + (1 - t) * W2, t * s1 + (1 - t) * s2, ds, lam)
            bound = t * score_ev(W1, s1, ds, lam) + (1 - t) * score_ev(W2, s2, ds, lam)
            assert mid <= bound + 1e-9

    def test_nv_convex_combinations(self):
        ds = random_dataset(5, 40, 1)
        for seed in range(100):
            rng = stream(12, seed, "cvx")
            W1, W2 = rng.normal(size=(2, 5, 5))
            for M in (W1, W2):
                np.fill_diagonal(M, 0.0)
            s1, s2 = 0.1 + 2 * rng.random(size=(2, 5))
            lam = 0.05
            t = rng.random()
            mid = score_nv(t * W1 + (1 - t) * W2, t * s1 + (1 - t) * s2, ds, lam)
            bound = t * score_nv(W1, s1, ds, lam) + (1 - t) * score_nv(W2, s2, ds, lam)
            assert mid <= bound + 1e-9


class TestStageObjective:
    def test_composition(self):
        ds = random_dataset(4, 30, 2)
        W = random_in_domain(4, 0.9, stream(13, 0, "w"))
        val = stage_objective(W, 1.2, ds, lam=0.1, mu=0.01, s=0.9,
                              method="colide_ev")
        assert val == pytest.approx(0.01 * score_ev(W, 1.2, ds, 0.1)
                                    + h_ldet(W, 0.9))

    def test_unknown_method(self):
        ds = random_dataset(3, 10, 3)
        with pytest.raises(ValueError):
            stage_objective(np.zeros((3, 3)), 1.0, ds, 0.1, 1.0, 1.0, "mystery")
