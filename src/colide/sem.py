"""Observational data from linear structural equation models.

Each variable is a linear function of its parents plus exogenous noise:
x_i = w_i^T x + z_i, or in matrix form X = W^T X + Z for a d x n sample
matrix X (columns are samples); simulate_sem walks the graph as graphs._Dag.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import _Dag, check_weights

__all__ = [
    "NoiseSpec",
    "Dataset",
    "draw_node_variances",
    "sample_noise",
    "simulate_sem",
    "standardize",
    "sample_cov",
]

FAMILIES = ("gaussian", "exponential", "laplace")


@dataclass(frozen=True)
class NoiseSpec:
    """Exogenous noise description.

    family: one of "gaussian", "exponential", "laplace".
    profile: "ev" (one shared variance) or "nv" (per-node variance drawn
    uniformly from variance_range).
    """

    family: str = "gaussian"
    profile: str = "ev"
    variance: float = 1.0
    variance_range: tuple = (0.5, 10.0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.profile not in ("ev", "nv"):
            raise ValueError(f"unknown noise profile {self.profile!r}")
        if not np.isfinite([self.variance, *self.variance_range]).all():
            raise ValueError("variance and variance_range must be finite")
        if self.profile == "ev" and self.variance <= 0:
            raise ValueError("variance must be positive")
        lo, hi = self.variance_range
        if self.profile == "nv" and not (0 < lo <= hi):
            raise ValueError("need 0 < lo <= hi in variance_range")


@dataclass
class Dataset:
    """d x n sample matrix (column = one joint sample)."""

    X: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[1] < 1:
            raise DataError("X must be d x n with n >= 1")
        if not np.all(np.isfinite(self.X)):
            raise DataError("X has non-finite entries")

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


def draw_node_variances(spec: NoiseSpec, d: int, rng: np.random.Generator) -> np.ndarray:
    """d i.i.d. uniform variance draws for a heteroscedastic noise spec."""
    if spec.profile != "nv":
        raise ValueError("draw_node_variances requires an NV noise spec")
    lo, hi = spec.variance_range
    return rng.uniform(lo, hi, size=d)


def sample_noise(family: str, variances, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a d x n exogenous noise matrix with per-row target variances.

    Parameterization: Gaussian N(0, v); Exponential with rate 1/sqrt(v)
    (variance v, mean sqrt(v), uncentered); Laplace with scale sqrt(v/2).
    """
    variances = np.asarray(variances, dtype=float)
    if np.any(variances <= 0):
        raise ValueError("variances must be positive")
    d = variances.shape[0]
    sd = np.sqrt(variances)[:, None]
    if family == "gaussian":
        return rng.standard_normal((d, n)) * sd
    if family == "exponential":
        return rng.exponential(1.0, size=(d, n)) * sd
    if family == "laplace":
        return rng.laplace(0.0, 1.0, size=(d, n)) * (sd / np.sqrt(2.0))
    raise ValueError(f"unknown noise family {family!r}")


def simulate_sem(W: np.ndarray, Z: np.ndarray) -> Dataset:
    """Propagate noise Z through the DAG W: X = (I - W^T)^{-1} Z.

    Evaluates node by node along graphs._Dag's order and parent lists, which
    is exact and avoids forming the inverse; a cycle names the "weight matrix".
    """
    W = check_weights(W)
    g = _Dag(W != 0, "weight matrix")
    Z = np.asarray(Z, dtype=float)
    if Z.shape[0] != W.shape[0]:
        raise ValueError("Z row count must match graph size")
    X = np.array(Z, copy=True)
    for i in g.order:
        if g.parents[i]:
            X[i] += W[g.parents[i], i] @ X[g.parents[i]]
    return Dataset(X=X)


def standardize(ds: Dataset) -> Dataset:
    """Center each row and scale it to unit empirical variance."""
    mean = ds.X.mean(axis=1, keepdims=True)
    sd = ds.X.std(axis=1, keepdims=True)
    if np.any(sd == 0):
        raise DataError("cannot standardize a constant row")
    return Dataset(X=(ds.X - mean) / sd)


def sample_cov(ds: Dataset) -> np.ndarray:
    """Uncentered sample covariance X X^T / n (divisor n)."""
    return ds.X @ ds.X.T / ds.n
