"""Method cores and the log-det acyclicity penalty.

METHOD_CORES holds each method's score and closed-form scale over a block
of fits, read by the batch and online solvers; a method's noise floor is
1e-2 times its closed-form scale at W = 0 (solver._setup). The log-det
penalty and its gradient accept a slice only inside the domain s > rho(W*W),
with a verdict per slice. ldet_and_grad takes a (B, d, d) stack and can
refresh each slice's inverse of sI - W*W by Newton-Schulz steps instead of an
LU inverse; h_ldet and grad_ldet take one W and always invert.

Conventions: sigma and the entries of Sigma are exogenous noise standard
deviations (never variances). The sample covariance is the uncentered
X X^T / n. The l1 subterm is excluded from all analytic gradients; the
solver folds in a subgradient.
"""

import functools
import math

import numpy as np

__all__ = [
    "DomainViolation",
    "h_ldet",
    "grad_ldet",
    "ldet_and_grad",
]


class DomainViolation(ValueError):
    """Raised when W leaves the log-det domain s > rho(W*W)."""


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


def _checked_inverse(M: np.ndarray, s: float):
    """LU inverses of a stack M = sI - W*W, and the slices outside the domain.

    Returns (Minv, faults): faults maps the index of each slice that is not
    inside the domain s > rho(W*W) to its DomainViolation message, and is
    empty when every slice is inside; a faulted slice's inverse means nothing.
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
    return Minv, faults


def _newton_schulz(M: np.ndarray, X: np.ndarray, s: float):
    """Two Newton-Schulz steps X <- X + X (I - M X) per slice of M = sI - W*W, and the slices they certify.

    Returns (X, ok). A slice is ok when R1 = I - M X1 after the first step
    has ||R1||_inf <= NS_TOL, so that the second step's X = M^{-1} (I - R1^2)
    is M^{-1} to a relative 1e-8, and when x = X 1 > 0 and Mx > (d + 1) eps s x
    elementwise. The last two certify s > rho(W*W) for any X: W*W is
    nonnegative, so rho(W*W) <= max_i ((W*W) x)_i / x_i = max_i (s - (Mx)_i / x_i) < s
    (Collatz-Wielandt). The margin covers the mat-vec's rounding: it moves
    (Mx)_i by at most d u (|M| x)_i with u = eps / 2, and (|M| x)_i <=
    2 s x_i - (Mx)_i because M's off-diagonal is <= 0 and x > 0, so a
    computed (Mx)_i above d eps s x_i has an exact (Mx)_i > 0. A non-finite
    X fails every test.
    """
    d = M.shape[-1]
    eye, ones = _scaled_eye(1.0, d), np.ones((d, 1))  # row sums as mat-vecs, cheaper than sum() at small d
    X = X + X @ (eye - M @ X)
    R = eye - M @ X
    X = X + X @ R
    x = X @ ones
    ok = (((np.abs(R) @ ones).max(axis=(1, 2)) <= NS_TOL)
          & (np.minimum(x, M @ x - (d + 1) * _EPS * s * x).min(axis=(1, 2)) > 0))
    return X, ok


def ldet_and_grad(W: np.ndarray, s: float, X: np.ndarray | None = None):
    """(h, grad, X, faults) of a (B, d, d) stack from one slogdet of M = sI - W*W and an inverse of it.

    h (B,), grad (B, d, d) and X ~ M^{-1} hold h_ldet, grad_ldet and the
    inverse of every slice that faults does not name. Without X every slice
    takes the LU inverse that _checked_inverse checks. With X, the inverses
    of a nearby M (the previous iterate's), each slice first takes two
    Newton-Schulz steps from its X, and only the slices they do not certify
    (_newton_schulz) take the checked LU inverse, which alone names faults.
    """
    M = _domain_matrix(W, s)
    if X is None:
        X, faults = _checked_inverse(M, s)
    else:
        X, ok = _newton_schulz(M, X, s)
        faults = {}
        if not ok.all():
            redo = np.flatnonzero(~ok).tolist()
            X[redo], exact = _checked_inverse(M[redo], s)
            faults = {redo[j]: msg for j, msg in exact.items()}
    return W.shape[-1] * np.log(s) - np.linalg.slogdet(M)[1], 2.0 * X.transpose(0, 2, 1) * W, X, faults


def grad_ldet(W: np.ndarray, s: float) -> np.ndarray:
    """Gradient 2 * (sI - W*W)^{-T} * W (Hadamard product) of h_ldet; checks the domain."""
    W = np.asarray(W)
    Minv, faults = _checked_inverse(_domain_matrix(W[None], s), s)
    if faults:
        raise DomainViolation(faults[0])
    return 2.0 * Minv[0].T * W


def h_ldet(W: np.ndarray, s: float) -> float:
    """Log-determinant acyclicity value d*log(s) - log det(sI - W*W).

    Zero exactly when W is a DAG (W*W nilpotent); positive on cyclic W inside
    the domain s > rho(W*W). Raises DomainViolation outside it, checked
    strictly on the inverse (see _checked_inverse), not on the determinant's sign.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    h, _, _, faults = ldet_and_grad(np.asarray(W)[None], s)
    if faults:
        raise DomainViolation(faults[0])
    return h[0]
