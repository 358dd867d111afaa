"""Score functions, acyclicity penalty, gradients, and closed-form scale updates.

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
    "score_ev",
    "score_nv",
    "score_ls_baseline",
    "h_ldet",
    "grad_h_ldet",
    "grad_w_ev",
    "grad_w_nv",
    "grad_ls_baseline",
    "sigma_hat_ev",
    "sigma_hat_nv",
    "stage_objective",
]


class DomainViolation(ValueError):
    """Raised when sI - W*W leaves the positive-determinant domain."""


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


# method -> (floor, grad, score, scale), cores that check nothing: the public
# functions below check their arguments first. floor(ds) and scale(gram, floor)
# are None for a scale frozen at 1; grad(-cov (I - W), scale) is the smooth-part
# gradient; score(gram, scale) the smooth score without the l1 term.
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


def _positive(scale):
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0):
        raise ValueError("noise scales must be positive")
    return scale


def _score(method, W, scale, ds, lam):
    gram = residual_gram(np.eye(W.shape[0]) - W, sample_cov(ds))
    return METHOD_CORES[method][2](gram, scale) + lam * np.abs(W).sum()


def score_ev(W: np.ndarray, sigma: float, ds: Dataset, lam: float) -> float:
    """Concomitant score: ||X - W^T X||_F^2 / (2 n sigma) + d*sigma/2 + lam*||W||_1."""
    return _score("colide_ev", W, _positive(sigma), ds, lam)


def score_nv(W: np.ndarray, sigmas: np.ndarray, ds: Dataset, lam: float) -> float:
    """Per-node concomitant score with Sigma = diag(sigmas) of standard deviations."""
    return _score("colide_nv", W, _positive(sigmas), ds, lam)


def score_ls_baseline(W: np.ndarray, ds: Dataset, lam: float) -> float:
    """Ordinary least-squares score ||X - W^T X||_F^2 / (2n) + lam*||W||_1."""
    return _score("ls_baseline", W, None, ds, lam)


def _domain_matrix(W: np.ndarray, s: float) -> np.ndarray:
    """sI - W*W with the same bits as s * np.eye(d) - W * W, without building I."""
    M = np.subtract(0.0, W * W, dtype=float, order="C")
    M.reshape(-1)[::W.shape[0] + 1] += s
    return M


def h_ldet(W: np.ndarray, s: float) -> float:
    """Log-determinant acyclicity value d*log(s) - log det(sI - W*W).

    Zero exactly when W is a DAG (W*W nilpotent); positive on cyclic W inside
    the domain. Raises DomainViolation when the determinant is nonpositive.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    d = W.shape[0]
    sign, logabsdet = np.linalg.slogdet(_domain_matrix(W, s))
    if sign <= 0 or not np.isfinite(logabsdet):
        raise DomainViolation(f"det(sI - W*W) <= 0 at s={s}")
    return d * np.log(s) - logabsdet


def grad_ldet(W: np.ndarray, s: float) -> np.ndarray:
    """Gradient 2 * (sI - W*W)^{-T} * W of h_ldet at a W known to be in the domain."""
    return 2.0 * np.linalg.inv(_domain_matrix(W, s)).T * W


def grad_h_ldet(W: np.ndarray, s: float) -> np.ndarray:
    """Gradient 2 * (sI - W*W)^{-T} * W (Hadamard product)."""
    h_ldet(W, s)  # raises outside the domain
    return grad_ldet(W, s)


def _grad(method, W, scale, cov):
    return METHOD_CORES[method][1](-cov @ (np.eye(W.shape[0]) - W), scale)


def grad_w_ev(W: np.ndarray, sigma: float, cov: np.ndarray) -> np.ndarray:
    """Smooth-part gradient -cov(X) (I - W) / sigma."""
    return _grad("colide_ev", W, _positive(sigma), cov)


def grad_w_nv(W: np.ndarray, sigmas: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Smooth-part gradient -cov(X) (I - W) Sigma^{-1}."""
    return _grad("colide_nv", W, _positive(sigmas), cov)


def grad_ls_baseline(W: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Gradient of the ordinary LS loss: -cov(X) (I - W)."""
    return _grad("ls_baseline", W, None, cov)


def sigma_hat_ev(W: np.ndarray, cov: np.ndarray, floor: float) -> float:
    """Closed-form scale update max(sqrt(Tr((I-W)^T cov (I-W)) / d), floor)."""
    return _sigma_ev(residual_gram(np.eye(W.shape[0]) - W, cov), floor)


def sigma_hat_nv(W: np.ndarray, cov: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Elementwise closed-form update max(sqrt(diag((I-W)^T cov (I-W))), floors)."""
    return _sigma_nv(residual_gram(np.eye(W.shape[0]) - W, cov), floors)


def stage_objective(W, scale, ds: Dataset, lam: float, mu: float, s: float,
                    method: str = "colide_ev") -> float:
    """Dualized stage value mu * score + h_ldet(W, s), used for early stopping."""
    if method not in METHOD_CORES:
        raise ValueError(f"unknown method {method!r}")
    scale = None if method == "ls_baseline" else _positive(scale)
    return mu * _score(method, W, scale, ds, lam) + h_ldet(W, s)
