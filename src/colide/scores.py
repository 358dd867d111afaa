"""Method cores, noise floors and the log-det acyclicity penalty.

METHOD_CORES holds each method's score, gradient and closed-form scale, read
by the batch and online solvers; the log-det penalty and its gradient accept
a point only inside the domain s > rho(W*W).

Conventions: sigma and the entries of Sigma are exogenous noise standard
deviations (never variances). The sample covariance is the uncentered
X X^T / n. The l1 subterm is excluded from all analytic gradients; the
solver folds in a subgradient.
"""

import numpy as np

from .errors import DataError
from .sem import Dataset, sample_cov

__all__ = [
    "DomainViolation",
    "sigma_floor_ev",
    "sigma_floor_nv",
    "h_ldet",
    "grad_ldet",
    "ldet_and_grad",
]


class DomainViolation(ValueError):
    """Raised when W leaves the log-det domain s > rho(W*W)."""


def sigma_floor_ev(ds: Dataset) -> float:
    """Scalar noise floor ||X||_F / sqrt(d*n) * 1e-2."""
    norm = np.linalg.norm(ds.X)
    if norm == 0:
        raise DataError("all-zero dataset has no usable noise floor")
    return norm / np.sqrt(ds.d * ds.n) * 1e-2


def sigma_floor_nv(ds: Dataset) -> np.ndarray:
    """Per-node noise floor sqrt(diag(cov(X))) * 1e-2."""
    diag = np.diag(sample_cov(ds))
    if np.any(diag == 0):
        raise DataError("identically-zero variable has no usable noise floor")
    return np.sqrt(diag) * 1e-2


def residual_gram(I_W: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """(I - W)^T cov (I - W) from I_W = I - W."""
    return I_W.T @ cov @ I_W


def _sigma_ev(gram, floor):
    val = np.trace(gram) / gram.shape[0]
    if val < -1e-12:
        raise ValueError(f"covariance is not PSD: trace term {val}")
    return max(np.sqrt(max(val, 0.0)), floor)


def _sigma_nv(gram, floors):
    diag = np.diag(gram)
    if np.any(diag < -1e-12):
        raise ValueError("covariance is not PSD: negative residual diagonal")
    return np.maximum(np.sqrt(np.maximum(diag, 0.0)), np.asarray(floors, dtype=float))


# method -> (floor, grad, score, scale), cores that check nothing; the solver
# passes them positive scales. floor(ds) and scale(gram, floor) are None for a
# scale frozen at 1; grad(-cov (I - W), scale) is the smooth-part gradient;
# score(gram, scale) the smooth score without the l1 term.
METHOD_CORES = {
    "colide_ev": (
        sigma_floor_ev, lambda P, sigma: P / sigma,
        lambda gram, sigma: np.trace(gram) / (2.0 * sigma) + gram.shape[0] * sigma / 2.0,
        _sigma_ev),
    "colide_nv": (
        sigma_floor_nv, lambda P, sigmas: P / sigmas[None, :],
        lambda gram, sigmas: 0.5 * (np.diag(gram) / sigmas).sum() + 0.5 * sigmas.sum(),
        _sigma_nv),
    "ls_baseline": (None, lambda P, _: P, lambda gram, _: 0.5 * np.trace(gram), None),
}


def _domain_matrix(W: np.ndarray, s: float) -> np.ndarray:
    """sI - W*W with the same bits as s * np.eye(d) - W * W, without building I."""
    M = np.subtract(0.0, W * W, dtype=float, order="C")
    M.reshape(-1)[::W.shape[0] + 1] += s
    return M


def _checked_grad(W: np.ndarray, M: np.ndarray, s: float) -> np.ndarray:
    """Log-det gradient 2 * M^{-T} * W for M = sI - W*W if s > rho(W*W); else DomainViolation.

    The Z-matrix M is a nonsingular M-matrix, i.e. s > rho(W*W), exactly when
    x = M^{-1} 1 > 0: then Mx = 1 > 0 makes M semipositive, and an M-matrix
    inverse is nonnegative with a positive diagonal. det(M) > 0 is weaker (an
    even number of eigenvalues of W*W above s keeps it positive). The row sums
    are tested rather than DAGMA's entries >= -1e-16 because a DAG's zero
    entries of M^{-1} round to about -1e-15 when others are large.
    """
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise DomainViolation(f"sI - W*W is singular at s={s}") from None
    rows = Minv.sum(axis=1)  # a non-finite entry makes its row sum non-finite
    if not (rows.min() > 0 and rows.max() < np.inf):
        raise DomainViolation(f"s={s} is not above the spectral radius of W*W")
    return 2.0 * Minv.T * W


def grad_ldet(W: np.ndarray, s: float) -> np.ndarray:
    """Gradient 2 * (sI - W*W)^{-T} * W (Hadamard product) of h_ldet; checks the domain."""
    return _checked_grad(W, _domain_matrix(W, s), s)


def ldet_and_grad(W: np.ndarray, s: float):
    """(h_ldet(W, s), grad_ldet(W, s)) from one inverse and one slogdet of sI - W*W."""
    M = _domain_matrix(W, s)
    G = _checked_grad(W, M, s)
    return W.shape[0] * np.log(s) - np.linalg.slogdet(M)[1], G


def h_ldet(W: np.ndarray, s: float) -> float:
    """Log-determinant acyclicity value d*log(s) - log det(sI - W*W).

    Zero exactly when W is a DAG (W*W nilpotent); positive on cyclic W inside
    the domain s > rho(W*W). Raises DomainViolation outside it, checked
    strictly on the inverse (see _checked_grad), not on the determinant's sign.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    return ldet_and_grad(W, s)[0]
