import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colide.errors import CyclicGraphError
from colide.graphs import GraphModelSpec, assign_edge_weights, cpdag_of, sample_er_dag
from colide.rng import stream
from colide.sem import (
    Dataset,
    NoiseSpec,
    draw_node_variances,
    sample_cov,
    sample_noise,
    simulate_sem,
    standardize,
)

from helpers import random_dag


def random_sem(d, seed, k=2):
    rng = stream(0, seed, "graph")
    B = sample_er_dag(GraphModelSpec(model="ER", d=d, k=k), rng)
    return assign_edge_weights(B, ((0.5, 2.0), (-2.0, -0.5)),
                               stream(0, seed, "weights"))


class TestNoiseSpec:
    def test_bad_family(self):
        for kw in (dict(family="cauchy"), dict(profile="heteroscedastic")):
            with pytest.raises(ValueError, match="unknown noise"):
                NoiseSpec(**kw)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            NoiseSpec(variance=0.0)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(profile="nv", variance_range=(2.0, 1.0))

    @pytest.mark.parametrize("kw", [dict(variance=np.nan), dict(variance=np.inf),
                                    dict(profile="nv", variance_range=(1.0, np.inf)),
                                    dict(profile="nv", variance_range=(np.nan, 1.0))])
    def test_non_finite_variance(self, kw):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**kw)


class TestDataset:
    def test_shape_properties(self):
        ds = Dataset(X=np.ones((3, 7)))
        assert ds.d == 3 and ds.n == 7

    def test_nonfinite_rejected(self):
        X = np.ones((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(X=X)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones(5))


class TestSampleNoise:
    @pytest.mark.parametrize("family", ["gaussian", "exponential", "laplace"])
    def test_empirical_variance_matches(self, family):
        variances = np.array([0.5, 1.0, 4.0])
        Z = sample_noise(family, variances, 200000, stream(0, 0, family))
        emp = Z.var(axis=1)
        assert np.allclose(emp, variances, rtol=0.05)

    def test_exponential_is_uncentered(self):
        Z = sample_noise("exponential", np.array([2.0]), 100000, stream(0, 1, "noise"))
        # mean equals the standard deviation for an exponential
        assert abs(Z.mean() - np.sqrt(2.0)) < 0.05
        assert (Z >= 0).all()

    def test_gaussian_and_laplace_centered(self):
        for fam in ("gaussian", "laplace"):
            Z = sample_noise(fam, np.array([1.0]), 100000, stream(0, 2, fam))
            assert abs(Z.mean()) < 0.02

    def test_laplace_kurtosis(self):
        Z = sample_noise("laplace", np.array([1.0]), 200000, stream(0, 3, "noise"))
        kurt = ((Z - Z.mean()) ** 4).mean() / Z.var() ** 2
        assert 5.5 < kurt < 6.5  # Laplace excess kurtosis is 3

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_noise("gaussian", np.array([0.0]), 10, stream(0, 0, "x"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, bad):
        # a NaN or infinite variance used to come back as a NaN or infinite noise row
        with pytest.raises(ValueError, match="variances must be positive and finite"):
            sample_noise("gaussian", [1.0, bad], 3, stream(0, 0, "x"))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown noise family 'cauchy'"):
            sample_noise("cauchy", np.array([1.0]), 10, stream(0, 0, "x"))


class TestDrawNodeVariances:
    def test_within_range(self):
        spec = NoiseSpec(profile="nv", variance_range=(0.5, 10.0))
        v = draw_node_variances(spec, 1000, stream(0, 0, "variances"))
        assert v.shape == (1000,)
        assert v.min() >= 0.5 and v.max() <= 10.0
        assert abs(v.mean() - 5.25) < 0.3

    def test_requires_nv(self):
        with pytest.raises(ValueError):
            draw_node_variances(NoiseSpec(profile="ev"), 5, stream(0, 0, "v"))


class TestSimulateSem:
    def test_matrix_identity(self):
        # topological-order evaluation must agree with the linear solve
        for seed in range(5):
            W = random_sem(10, seed)
            Z = stream(1, seed, "noise").standard_normal((10, 50))
            ds = simulate_sem(W, Z)
            X_ref = np.linalg.solve(np.eye(10) - W.T, Z)
            assert np.allclose(ds.X, X_ref, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(1, 30),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_linear_solve_property(self, d, p, n, seed):
        rng = np.random.default_rng(seed)
        W = assign_edge_weights(random_dag(d, rng, p=p), ((0.5, 2.0), (-2.0, -0.5)), rng)
        Z = rng.standard_normal((d, n))
        X_ref = np.linalg.solve(np.eye(d) - W.T, Z)
        # atol at rounding level of the largest entry, for entries that cancel to ~0
        np.testing.assert_allclose(simulate_sem(W, Z).X, X_ref, rtol=1e-10,
                                   atol=1e-13 * np.abs(X_ref).max())

    def test_empty_graph_passes_noise_through(self):
        Z = np.arange(12.0).reshape(3, 4)
        ds = simulate_sem(np.zeros((3, 3)), Z)
        assert np.array_equal(ds.X, Z)

    def test_chain_accumulates(self):
        W = np.zeros((3, 3))
        W[0, 1] = 2.0
        W[1, 2] = -1.0
        Z = np.ones((3, 1))
        ds = simulate_sem(W, Z)
        assert np.allclose(ds.X[:, 0], [1.0, 3.0, -2.0])

    def test_population_covariance(self):
        # empirical covariance converges to (I-W)^-T diag(v) (I-W)^-1
        W = random_sem(6, 3)
        variances = np.array([1.0, 2.0, 0.5, 1.5, 3.0, 1.0])
        Z = sample_noise("gaussian", variances, 400000, stream(2, 0, "noise"))
        ds = simulate_sem(W, Z)
        inv = np.linalg.inv(np.eye(6) - W)
        target = inv.T @ np.diag(variances) @ inv
        emp = np.cov(ds.X, bias=True)
        assert np.allclose(emp, target, atol=0.15 * np.abs(target).max())

    def test_cyclic_rejected(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(ValueError):
            simulate_sem(W, np.ones((2, 3)))

    def test_noise_rows_must_match_the_graph(self):
        for rows in (1, 3):
            with pytest.raises(ValueError, match="Z row count"):
                simulate_sem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((rows, 3)))

    @pytest.mark.parametrize("build", [lambda W: simulate_sem(W, np.ones((2, 3))), cpdag_of],
                             ids=["simulate_sem", "cpdag_of"])
    def test_cycle_is_a_cyclic_graph_error(self, build):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(CyclicGraphError, match="is not a DAG: it has a directed cycle"):
            build(W)


class TestStandardize:
    def test_rows_become_unit(self):
        ds = Dataset(X=stream(0, 0, "x").normal(3.0, 2.0, size=(4, 500)))
        out = standardize(ds)
        assert np.allclose(out.X.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.X.std(axis=1), 1.0, atol=1e-12)

    def test_constant_row_rejected(self):
        with pytest.raises(ValueError):
            standardize(Dataset(X=np.ones((2, 5))))


class TestSampleCov:
    def test_uncentered_divisor_n(self):
        X = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]])
        cov = sample_cov(Dataset(X=X))
        assert np.allclose(cov, X @ X.T / 3.0)
        assert np.allclose(cov, cov.T)

    def test_psd(self):
        ds = Dataset(X=stream(0, 1, "x").standard_normal((6, 40)))
        vals = np.linalg.eigvalsh(sample_cov(ds))
        assert vals.min() > -1e-12
