import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from colide.graphs import GraphModelSpec, assign_edge_weights, sample_er_dag
from colide.rng import stream
from colide.scores import (
    METHOD_CORES,
    DomainViolation,
    _domain_matrix,
    _newton_schulz,
    grad_ldet,
    h_ldet,
    ldet_and_grad,
    residual_diag,
)
from colide.errors import DataError
from colide.sem import Dataset, sample_cov
from colide.solver import StageSchedule, fit, fit_online

from helpers import fd_grad, method_core, noise_floor, random_in_domain, rel_err

FD_RTOL = 1e-5


def random_dataset(d, n, seed):
    return Dataset(X=stream(9, seed, "data").standard_normal((d, n)))


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
            grad_ldet(W, 1.0)

    def test_invalid_s(self):
        for f in (h_ldet, grad_ldet):
            for s in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="s must be positive"):
                    f(np.zeros((2, 2)), s)

    def test_stack_verdict_per_slice(self):
        # a singular slice fails the stacked inverse: only it is marked, and the
        # other slices get what h_ldet and grad_ldet give each alone
        W = np.zeros((4, 2, 2))
        W[0, 0, 1] = 0.5  # a DAG
        W[1, 0, 1] = W[1, 1, 0] = 1.0  # sI - W*W singular at s = 1
        W[2, 0, 1] = W[2, 1, 0] = 1.5  # outside the domain
        W[3, 0, 1] = W[3, 1, 0] = 0.5  # a 2-cycle inside it
        h, G, _, inside = ldet_and_grad(W, 1.0)
        assert inside.dtype == bool and inside.tolist() == [True, False, False, True]
        # the singular slice keeps a NaN inverse, which fails the certificate without a
        # RuntimeWarning (an error in this suite), as does a Newton-Schulz refresh from NaNs
        assert ldet_and_grad(W, 1.0, np.full_like(W, np.nan))[3].tolist() == inside.tolist()
        for b in (0, 3):
            assert h[b] == h_ldet(W[b], 1.0)
            assert np.array_equal(G[b], grad_ldet(W[b], 1.0))
        # a singular sI - W*W has s as an eigenvalue of W*W: one message for both faults
        for b in (1, 2):
            for f in (h_ldet, grad_ldet):
                with pytest.raises(DomainViolation, match=r"^s=1\.0 is not above the spectral radius of W\*W$"):
                    f(W[b], 1.0)

    @settings(max_examples=150, deadline=None)
    @given(d=hs.integers(2, 12), s=hs.sampled_from([0.7, 1.0]),
           ratios=hs.lists(hs.sampled_from([0.5, 0.9, 0.99, 1.01, 1.1, 2.0]), min_size=1, max_size=4),
           seed=hs.integers(0, 2 ** 32 - 1))
    @example(d=5, s=1.0, ratios=[0.99, 1.01, 2.0, 0.5], seed=0)
    def test_lu_verdict_is_the_spectral_radius_property(self, d, s, ratios, seed):
        # with no X every slice takes the LU inverse: inside exactly when rho(W*W) < s
        rng = np.random.default_rng(seed)
        W = np.stack([random_in_domain(d, s, rng, scale=ratio) for ratio in ratios])
        _, _, _, inside = ldet_and_grad(W, s)
        assert inside.tolist() == [max(abs(np.linalg.eigvals(Wb * Wb))) < s for Wb in W]

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
                    got = _domain_matrix(X[None], s)[0]
                    assert got.dtype == expect.dtype
                    assert got.tobytes() == expect.tobytes()
                    assert np.array_equal(np.signbit(got), np.signbit(expect))


class TestNewtonSchulz:
    @settings(max_examples=150, deadline=None)
    @given(d=hs.integers(2, 12), s=hs.sampled_from([0.7, 1.0]),
           rho=hs.sampled_from([0.5, 0.9, 0.99, 0.999, 1.001, 1.1]),
           grow=hs.sampled_from([1.0, 1.0005, 1.002, 1.02, 1.2]), step=hs.sampled_from([0.0, 1e-7, 1e-4]),
           seed=hs.integers(0, 2 ** 32 - 1))
    @example(d=5, s=1.0, rho=0.9, grow=1.0, step=1e-7, seed=0)  # certified
    @example(d=5, s=1.0, rho=0.999, grow=1.002, step=0.0, seed=0)  # just outside the domain
    # outside, from the exact inverse of that M: the steps keep it, and only x = X 1 > 0 fails
    @example(d=5, s=1.0, rho=1.001, grow=1.0, step=0.0, seed=0)
    def test_certified_refresh_property(self, d, s, rho, grow, step, seed):
        # the previous W0 has rho(W0*W0) = rho * s and LU inverse X0; the new W scales W0*W0 by
        # grow and takes a step, so that rho * grow >= 1 puts it outside the domain
        rng = np.random.default_rng(seed)
        W0 = random_in_domain(d, s, rng, scale=rho)
        X0 = np.linalg.inv(_domain_matrix(W0[None], s))
        E = rng.standard_normal((d, d))
        np.fill_diagonal(E, 0.0)
        W = W0 * np.sqrt(grow) + step * E
        X, ok = _newton_schulz(_domain_matrix(W[None], s), X0, s)
        if ok[0]:
            assert max(abs(np.linalg.eigvals(W * W))) < s
            assert rel_err(2.0 * X[0].T * W, grad_ldet(W, s)) < 1e-8
        elif grow == 1.0 and step == 0.0 and rho <= 0.9:
            pytest.fail("the exact inverse of a well-conditioned M was not certified")
        # a slice the refresh does not certify takes the LU path: the verdict is the exact one
        _, G, _, inside = ldet_and_grad(W[None], s, X0)
        _, G_exact, _, exact = ldet_and_grad(W[None], s)
        assert inside.tolist() == exact.tolist()
        if not ok[0] and inside[0]:
            assert np.array_equal(G, G_exact)


class TestGradients:
    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_w_ev(self, d):
        for seed in range(20):
            ds = random_dataset(d, 60, seed)
            W = random_in_domain(d, 1.0, stream(3, seed, "w"))
            sigma = 0.5 + stream(3, seed, "sig").random()
            # score without the l1 term (analytic gradients exclude it)
            f = lambda M: method_core("colide_ev", "score", M, ds, sigma)  # noqa: E731
            grad = method_core("colide_ev", "grad", W, ds, sigma)
            assert rel_err(grad, fd_grad(f, W)) < FD_RTOL

    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_w_nv(self, d):
        for seed in range(20):
            ds = random_dataset(d, 60, seed)
            W = random_in_domain(d, 1.0, stream(4, seed, "w"))
            sigmas = 0.5 + stream(4, seed, "sig").random(d)
            f = lambda M: method_core("colide_nv", "score", M, ds, sigmas)  # noqa: E731
            grad = method_core("colide_nv", "grad", W, ds, sigmas)
            assert rel_err(grad, fd_grad(f, W)) < FD_RTOL

    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_ls(self, d):
        for seed in range(20):
            ds = random_dataset(d, 60, seed)
            W = random_in_domain(d, 1.0, stream(5, seed, "w"))
            f = lambda M: method_core("ls_baseline", "score", M, ds)  # noqa: E731
            grad = method_core("ls_baseline", "grad", W, ds)
            assert rel_err(grad, fd_grad(f, W)) < FD_RTOL

    @pytest.mark.parametrize("d", [4, 8])
    def test_grad_h_ldet(self, d):
        for seed in range(20):
            for s in (0.8, 1.0):
                W = random_in_domain(d, s, stream(6, seed, f"w{s}"))
                f = lambda M: h_ldet(M, s)  # noqa: E731
                assert rel_err(grad_ldet(W, s), fd_grad(f, W)) < FD_RTOL


class TestScaleUpdates:
    def test_ev_stationary_point(self):
        # at sigma_hat, d(score)/d(sigma) = 0: rss/(2 sigma^2) = d/2
        for seed in range(10):
            ds = random_dataset(5, 40, seed)
            cov = sample_cov(ds)
            W = random_in_domain(5, 1.0, stream(7, seed, "w"))
            sig = method_core("colide_ev", "scale", W, ds, 1e-9)
            I_W = np.eye(5) - W
            rss = np.trace(I_W.T @ cov @ I_W)
            assert abs(rss / sig ** 2 - 5) < 1e-8

    def test_ev_beats_grid(self):
        # grid oracle computed straight from the residuals, step 1e-4
        for seed in range(20):
            ds = random_dataset(4, 30, seed)
            W = random_in_domain(4, 1.0, stream(8, seed, "w"))
            floor = noise_floor("colide_ev", ds)
            sig = method_core("colide_ev", "scale", W, ds, floor)
            resid = ds.X - W.T @ ds.X
            rss = (resid ** 2).sum() / ds.n
            grid = np.arange(floor, 10.0, 1e-4)
            vals = rss / (2 * grid) + ds.d * grid / 2
            best_sigma = grid[np.argmin(vals)]
            assert (method_core("colide_ev", "score", W, ds, sig, lam=0.1)
                    <= method_core("colide_ev", "score", W, ds, best_sigma, lam=0.1) + 1e-8)

    def test_nv_beats_grid(self):
        # per-coordinate grid oracle from the residuals, step 1e-4
        for seed in range(20):
            ds = random_dataset(4, 30, seed)
            W = random_in_domain(4, 1.0, stream(9, seed, "w"))
            floors = noise_floor("colide_nv", ds)
            sigs = method_core("colide_nv", "scale", W, ds, floors)
            resid = ds.X - W.T @ ds.X
            rss = (resid ** 2).sum(axis=1) / ds.n
            val = method_core("colide_nv", "score", W, ds, sigs, lam=0.1)
            for i in range(4):
                grid = np.arange(floors[i], 10.0, 1e-4)
                vals = 0.5 * rss[i] / grid + 0.5 * grid
                trial = sigs.copy()
                trial[i] = grid[np.argmin(vals)]
                assert method_core("colide_nv", "score", W, ds, trial, lam=0.1) >= val - 1e-8

    def test_floor_binds(self):
        ds = random_dataset(3, 25, 0)
        W = np.zeros((3, 3))
        big = 100.0
        assert method_core("colide_ev", "scale", W, ds, big) == big
        assert np.all(method_core("colide_nv", "scale", W, ds, np.full(3, big)) == big)

    def test_rounded_negative_residual_gives_the_floor(self):
        # x1 = a * x0 fitted by the exact coefficient: node 1's residual variance
        # is 0, but the Gram diagonal rounds it below -1e-12; the cores clamp it
        rng = np.random.default_rng(0)
        scale, a = 10 ** rng.uniform(0, 4), rng.uniform(-2, 2)
        x0 = scale * rng.standard_normal(50)
        ds = Dataset(X=np.stack([x0, a * x0]))
        I_W = (np.eye(2) - np.array([[0.0, a], [0.0, 0.0]]))[None]
        diag = residual_diag(I_W, sample_cov(ds)[None] @ I_W)
        assert diag[0, 1] < -1e-12
        floors = noise_floor("colide_nv", ds)
        assert METHOD_CORES["colide_nv"][1](diag, floors[None]).tolist() == [[np.sqrt(diag[0, 0]), floors[1]]]
        # node 1 alone: the EV sum is the same rounded value, and the scale column is the floor
        assert METHOD_CORES["colide_ev"][1](diag[:, 1:], np.array([[0.5]])).tolist() == [[0.5]]

    def test_floors_from_data(self):
        # the floor is 1e-2 times the closed-form scale at W = 0: sqrt(tr C / d) for colide_ev,
        # which is ||X||_F / sqrt(d n) up to rounding, and sqrt(diag C) for colide_nv
        for seed in range(20):
            d, n = 2 + seed % 7, 10 + 37 * seed
            ds = random_dataset(d, n, seed)
            assert noise_floor("colide_ev", ds) == pytest.approx(
                np.linalg.norm(ds.X) / np.sqrt(d * n) * 1e-2, rel=1e-15, abs=0)
            assert np.array_equal(noise_floor("colide_nv", ds), np.sqrt(np.diag(sample_cov(ds))) * 1e-2)
        assert noise_floor("ls_baseline", ds) is None

    def test_zero_data_rejected(self):
        # a variable that is identically zero has a zero colide_nv floor; both drivers reject it
        ds = Dataset(X=np.zeros((2, 3)) + [[1.0], [0.0]])
        assert noise_floor("colide_nv", ds)[1] == 0
        with pytest.raises(DataError, match="^identically-zero variable has no usable noise floor$"):
            fit(ds, "colide_nv", StageSchedule(((1.0, 1.0, 1),)))
        with pytest.raises(DataError, match="^identically-zero variable has no usable noise floor$"):
            fit_online(ds, 3, "colide_nv")


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
            mid = method_core("colide_ev", "score", t * W1 + (1 - t) * W2, ds,
                              t * s1 + (1 - t) * s2, lam=lam)
            bound = (t * method_core("colide_ev", "score", W1, ds, s1, lam=lam)
                     + (1 - t) * method_core("colide_ev", "score", W2, ds, s2, lam=lam))
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
            mid = method_core("colide_nv", "score", t * W1 + (1 - t) * W2, ds,
                              t * s1 + (1 - t) * s2, lam=lam)
            bound = (t * method_core("colide_nv", "score", W1, ds, s1, lam=lam)
                     + (1 - t) * method_core("colide_nv", "score", W2, ds, s2, lam=lam))
            assert mid <= bound + 1e-9


class TestStageObjective:
    def test_composition(self):
        # mu * (score + lam * ||W||_1) + h as the solver composes it, against the
        # EV score ||X - W^T X||_F^2 / (2 n sigma) + d sigma / 2 + lam ||W||_1
        ds = random_dataset(4, 30, 2)
        W = random_in_domain(4, 0.9, stream(13, 0, "w"))
        val = 0.01 * method_core("colide_ev", "score", W, ds, 1.2, lam=0.1) + h_ldet(W, 0.9)
        score_ev = (((ds.X - W.T @ ds.X) ** 2).sum() / (2 * ds.n * 1.2) + 4 * 1.2 / 2
                    + 0.1 * np.abs(W).sum())
        assert val == pytest.approx(0.01 * score_ev
                                    + h_ldet(W, 0.9))
