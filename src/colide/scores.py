"""Method cores, noise floors and the log-det acyclicity penalty.

METHOD_CORES holds each method's score, gradient and closed-form scale over a
(B, d, d) stack of fits, read by the batch and online solvers; the log-det
penalty and its gradient accept a slice only inside the domain s > rho(W*W),
with a verdict per slice. h_ldet and grad_ldet take one W.

Conventions: sigma and the entries of Sigma are exogenous noise standard
deviations (never variances). The sample covariance is the uncentered
X X^T / n. The l1 subterm is excluded from all analytic gradients; the
solver folds in a subgradient.
"""

import functools
import math

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
    """(I - W)^T cov (I - W) per slice of a (B, d, d) stack, from I_W = I - W."""
    return I_W.transpose(0, 2, 1) @ cov @ I_W


# A scalar per slice is worked out on Python floats: the same IEEE operations
# as numpy's, without one ufunc call per operation on a (B,) array.
def _sigma_ev(gram, floor):
    d = gram.shape[-1]
    return np.array([max(math.sqrt(max(trace / d, 0.0)), f)
                     for trace, f in zip(gram.trace(axis1=1, axis2=2).tolist(), floor.tolist())])


def _score_ev(gram, sigma):
    d = gram.shape[-1]
    return np.array([trace / (2.0 * s) + d * s / 2.0
                     for trace, s in zip(gram.trace(axis1=1, axis2=2).tolist(), sigma.tolist())])


# method -> (floor, grad, score, scale), cores over a stack of B slices that
# check nothing; the solver passes them positive scales. A scalar scale (and
# floor) has shape (B,), a per-node one (B, d). floor(ds) of one dataset and
# scale(gram, floor) are None for a scale frozen at 1; grad(-cov (I - W), scale)
# is the smooth-part gradient; score(gram, scale) the smooth score per slice
# without the l1 term. A residual Gram matrix of the PSD X X^T / n is PSD up to
# rounding, so the scale cores clamp a rounded-negative term at 0.
METHOD_CORES = {
    "colide_ev": (
        sigma_floor_ev, lambda P, sigma: P / sigma[:, None, None],
        _score_ev, _sigma_ev),
    "colide_nv": (
        sigma_floor_nv, lambda P, sigmas: P / sigmas[:, None, :],
        lambda gram, sigmas: (0.5 * (gram.diagonal(axis1=1, axis2=2) / sigmas).sum(axis=1)
                              + 0.5 * sigmas.sum(axis=1)),
        lambda gram, floors: np.maximum(np.sqrt(np.maximum(gram.diagonal(axis1=1, axis2=2), 0.0)),
                                        floors)),
    "ls_baseline": (None, lambda P, _: P, lambda gram, _: 0.5 * gram.trace(axis1=1, axis2=2), None),
}


@functools.lru_cache(maxsize=64)
def _scaled_eye(s: float, d: int) -> np.ndarray:
    E = s * np.eye(d)
    E.flags.writeable = False
    return E


def _domain_matrix(W: np.ndarray, s: float) -> np.ndarray:
    """s * np.eye(d) - W * W per slice of a (B, d, d) stack; sI is built once per (s, d)."""
    return _scaled_eye(s, W.shape[-1]) - W * W


def _checked_grad(W: np.ndarray, M: np.ndarray, s: float):
    """Log-det gradients 2 * M^{-T} * W of a stack M = sI - W*W, and the slices outside the domain.

    Returns (grad, faults): faults maps the index of each slice that is not
    inside the domain s > rho(W*W) to its DomainViolation message, and is
    empty when every slice is inside; a faulted slice's gradient means nothing.
    The Z-matrix M is a nonsingular M-matrix, i.e. s > rho(W*W), exactly when
    x = M^{-1} 1 > 0: then Mx = 1 > 0 makes M semipositive, and an M-matrix
    inverse is nonnegative with a positive diagonal. det(M) > 0 is weaker (an
    even number of eigenvalues of W*W above s keeps it positive). The row sums
    are tested rather than DAGMA's entries >= -1e-16 because a DAG's zero
    entries of M^{-1} round to about -1e-15 when others are large. When one
    slice is singular the stacked inverse fails, so the slices are inverted
    one at a time and only the singular ones are marked.
    """
    faults = {}
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        Minv = np.full_like(M, np.nan)
        for b, Mb in enumerate(M):
            try:
                Minv[b] = np.linalg.inv(Mb)
            except np.linalg.LinAlgError:
                faults[b] = f"sI - W*W is singular at s={s}"
    rows = Minv.sum(axis=2)  # a non-finite entry makes its row sum non-finite
    if not (rows.min() > 0 and rows.max() < np.inf):
        inside = (rows.min(axis=1) > 0) & (rows.max(axis=1) < np.inf)
        for b in np.flatnonzero(~inside).tolist():
            faults.setdefault(b, f"s={s} is not above the spectral radius of W*W")
    return 2.0 * Minv.transpose(0, 2, 1) * W, faults


def ldet_and_grad(W: np.ndarray, s: float):
    """(h, grad, faults) of a (B, d, d) stack from one inverse and one slogdet of sI - W*W.

    h (B,) and grad (B, d, d) hold h_ldet and grad_ldet of every slice that
    faults (see _checked_grad) does not name.
    """
    M = _domain_matrix(W, s)
    G, faults = _checked_grad(W, M, s)
    return W.shape[-1] * np.log(s) - np.linalg.slogdet(M)[1], G, faults


def grad_ldet(W: np.ndarray, s: float) -> np.ndarray:
    """Gradient 2 * (sI - W*W)^{-T} * W (Hadamard product) of h_ldet; checks the domain."""
    W = np.asarray(W)[None]
    G, faults = _checked_grad(W, _domain_matrix(W, s), s)
    if faults:
        raise DomainViolation(faults[0])
    return G[0]


def h_ldet(W: np.ndarray, s: float) -> float:
    """Log-determinant acyclicity value d*log(s) - log det(sI - W*W).

    Zero exactly when W is a DAG (W*W nilpotent); positive on cyclic W inside
    the domain s > rho(W*W). Raises DomainViolation outside it, checked
    strictly on the inverse (see _checked_grad), not on the determinant's sign.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    h, _, faults = ldet_and_grad(np.asarray(W)[None], s)
    if faults:
        raise DomainViolation(faults[0])
    return h[0]
