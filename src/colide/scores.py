"""Method cores and the log-det acyclicity penalty.

METHOD_CORES holds each method's score and closed-form scale over a block
of fits, read by the batch and online solvers; a method's noise floor is
1e-2 times its closed-form scale at W = 0 (solver._setup). The log-det
penalty and its gradient are defined only inside the domain s > rho(W*W).
ldet_and_grad takes a (B, d, d) stack and returns a (B,) mask of the slices
inside it; it can refresh each slice's inverse of sI - W*W by Newton-Schulz
steps instead of an LU inverse. Either inverse is judged by one
Collatz-Wielandt certificate (_certified). h_ldet and grad_ldet take one W,
always invert, and raise DomainViolation outside the domain.

Conventions: sigma and the entries of Sigma are exogenous noise standard
deviations (never variances). The sample covariance is the uncentered
X X^T / n. The l1 subterm is excluded from all analytic gradients; the
solver folds in a subgradient.
"""

import functools
import math

import numpy as np

from .errors import DomainViolation

__all__ = [
    "DomainViolation",
    "h_ldet",
    "grad_ldet",
    "ldet_and_grad",
]


def residual_diag(I_W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The residual Gram diagonal, diag((I - W)^T cov (I - W)) per slice, from I_W = I - W and P = cov I_W."""
    return np.einsum("bij,bij->bj", I_W, P)  # ((I - W) * P).sum(axis=1), in fewer passes


# A scalar per slice is worked out on Python floats: the same IEEE operations
# as numpy's, without one ufunc call per operation on a (B,) array.
def _sigma_ev(diag, floor):
    d = diag.shape[-1]
    sigma = [max(math.sqrt(max(rss / d, 0.0)), f)
             for rss, f in zip(diag.sum(axis=1).tolist(), floor[:, 0].tolist())]
    return np.array(sigma)[:, None]


def _score_ev(diag, sigma):
    d = diag.shape[-1]
    return np.array([rss / (2.0 * s) + d * s / 2.0
                     for rss, s in zip(diag.sum(axis=1).tolist(), sigma[:, 0].tolist())])


# method -> (score, scale), cores over a block of B slices that check nothing;
# the solver passes the score core positive scales. The solver holds every
# scale and floor as a (B, d) row per slice: colide_ev's sigma fills its row,
# and the scale of ls_baseline is frozen at a row of ones, so the smooth-part
# gradient of every method is -cov (I - W) / scale[:, None, :].
# scale(diag, floor) is the closed-form scale, a (B, 1) column of sigmas for
# colide_ev and a (B, d) row for colide_nv, and None for ls_baseline;
# score(diag, scale) is the smooth score per slice without the l1 term. diag
# is residual_diag; the residual Gram matrix of the PSD X X^T / n is PSD up
# to rounding, so the scale cores clamp a rounded-negative entry at 0.
METHOD_CORES = {
    "colide_ev": (_score_ev, _sigma_ev),
    "colide_nv": (
        lambda diag, sigmas: 0.5 * (diag / sigmas).sum(axis=1) + 0.5 * sigmas.sum(axis=1),
        lambda diag, floors: np.maximum(np.sqrt(np.maximum(diag, 0.0)), floors)),
    "ls_baseline": (lambda diag, _: 0.5 * diag.sum(axis=1), None),
}

NS_TOL = 1e-4  # largest ||I - M X||_inf after the first Newton-Schulz step that ldet_and_grad accepts
_EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=64)
def _scaled_eye(s: float, d: int) -> np.ndarray:
    E = s * np.eye(d)
    E.flags.writeable = False
    return E


def _domain_matrix(W: np.ndarray, s: float) -> np.ndarray:
    """s * np.eye(d) - W * W per slice of a (B, d, d) stack; sI is built once per (s, d)."""
    return _scaled_eye(s, W.shape[-1]) - W * W


def _certified(M: np.ndarray, X: np.ndarray, s: float) -> np.ndarray:
    """The (B,) mask of the slices of M = sI - W*W that X certifies inside the domain s > rho(W*W).

    x = X 1 > 0 and Mx > (d + 1) eps s x elementwise prove s > rho(W*W) for any X: W*W is
    nonnegative, so rho(W*W) <= max_i ((W*W) x)_i / x_i = max_i (s - (Mx)_i / x_i) < s
    (Collatz-Wielandt). The margin covers the mat-vec's rounding, at most d u (|M| x)_i with
    u = eps / 2, where (|M| x)_i <= 2 s x_i - (Mx)_i as M's off-diagonal is <= 0 and x > 0: a
    computed (Mx)_i above d eps s x_i has an exact (Mx)_i > 0. The exact inverse passes whenever
    s > rho(W*W): M is then a nonsingular M-matrix, whose inverse is nonnegative with a positive
    diagonal, so x = M^{-1} 1 > 0 and Mx = 1. det(M) > 0 would not do (an even number of
    eigenvalues of W*W above s keeps it positive), nor would DAGMA's entries >= -1e-16, which a
    DAG's zero entries of M^{-1} miss by rounding to about -1e-15. A NaN in X fails the test,
    with no floating-point warning.
    """
    d = M.shape[-1]
    x = X @ np.ones((d, 1))  # X 1 as a mat-vec, cheaper than sum() at small d
    return np.minimum(x, M @ x - (d + 1) * _EPS * s * x).min(axis=(1, 2)) > 0


def _checked_inverse(M: np.ndarray, s: float):
    """(Minv, inside): LU inverses of a stack M = sI - W*W, and the slices they certify (_certified).

    When one slice is singular the stacked inverse fails, so the slices are inverted one at a
    time; a singular slice keeps a NaN inverse, which the certificate rejects.
    """
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        Minv = np.full_like(M, np.nan)
        for b, Mb in enumerate(M):
            try:
                Minv[b] = np.linalg.inv(Mb)
            except np.linalg.LinAlgError:
                pass
    return Minv, _certified(M, Minv, s)


def _newton_schulz(M: np.ndarray, X: np.ndarray, s: float):
    """Two Newton-Schulz steps X <- X + X (I - M X) per slice of M = sI - W*W, and the slices they certify.

    Returns (X, inside). A slice is inside when R1 = I - M X1 after the first step has
    ||R1||_inf <= NS_TOL, so that the second step's X = M^{-1} (I - R1^2) is M^{-1} to a relative
    1e-8, and when _certified accepts the final X.
    """
    d = M.shape[-1]
    eye, ones = _scaled_eye(1.0, d), np.ones((d, 1))
    X = X + X @ (eye - M @ X)
    R = eye - M @ X
    X = X + X @ R
    return X, ((np.abs(R) @ ones).max(axis=(1, 2)) <= NS_TOL) & _certified(M, X, s)


def ldet_and_grad(W: np.ndarray, s: float, X: np.ndarray | None = None):
    """(h, grad, X, inside) of a (B, d, d) stack from one slogdet of M = sI - W*W and an inverse of it.

    inside is the (B,) mask of the slices in the domain; h, grad and X ~ M^{-1} hold h_ldet,
    grad_ldet and the inverse of each of them. Without X every slice takes the LU inverse. With
    X, the inverses of a nearby M (the previous iterate's), each slice first takes two
    Newton-Schulz steps from its X, and only the slices they do not certify take the LU inverse.
    """
    M = _domain_matrix(W, s)
    if X is None:
        X, inside = _checked_inverse(M, s)
    else:
        X, inside = _newton_schulz(M, X, s)
        if not inside.all():
            redo = ~inside
            X[redo], inside[redo] = _checked_inverse(M[redo], s)
    return W.shape[-1] * np.log(s) - np.linalg.slogdet(M)[1], 2.0 * X.transpose(0, 2, 1) * W, X, inside


def _ldet_of_one(W: np.ndarray, s: float):
    """(h, grad) of ldet_and_grad at one W; ValueError unless 0 < s < inf, DomainViolation outside the domain."""
    if not 0 < s < math.inf:  # NaN fails
        raise ValueError("s must be positive and finite")
    h, grad, _, inside = ldet_and_grad(np.asarray(W)[None], s)
    if not inside[0]:
        raise DomainViolation(s)
    return h[0], grad[0]


def grad_ldet(W: np.ndarray, s: float) -> np.ndarray:
    """Gradient 2 * (sI - W*W)^{-T} * W (Hadamard product) of h_ldet; checks s and the domain as h_ldet does."""
    return _ldet_of_one(W, s)[1]


def h_ldet(W: np.ndarray, s: float) -> float:
    """Log-determinant acyclicity value d*log(s) - log det(sI - W*W).

    Zero exactly when W is a DAG (W*W nilpotent); positive on cyclic W inside the domain
    s > rho(W*W). Raises ValueError unless 0 < s < inf, and DomainViolation outside the domain, which
    _certified decides on the inverse, not on the determinant's sign.
    """
    return _ldet_of_one(W, s)[0]
