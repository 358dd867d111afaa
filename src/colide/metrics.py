"""DAG-recovery and noise-estimation metrics.

All structural metrics operate on supports (nonzero patterns); reversed
edges count once in SHD, and as false positives for FDR / misses for TPR.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import Cpdag, check_weights, cpdag_of, is_dag
from .sem import Dataset

__all__ = [
    "MetricReport",
    "shd",
    "shd_c",
    "sid",
    "tpr",
    "fdr",
    "noise_error",
    "posthoc_noise",
    "evaluate",
]

SID_DEFAULT_CEILING = 200


@dataclass
class MetricReport:
    shd: int
    shd_normalized: float
    shd_c: int
    sid: int
    tpr: float
    fdr: float
    edge_count_est: int
    edge_count_true: int
    noise_rel_error: float | None = None


def _supports(est, true):
    A = check_weights(est) != 0
    B = check_weights(true) != 0
    if A.shape != B.shape:
        raise DataError("graphs must have the same node count")
    return A, B


def shd(est: np.ndarray, true: np.ndarray) -> int:
    """Structural Hamming distance between two DAG supports.

    Per unordered pair: a reversal counts 1; an edge present in exactly one
    graph counts 1 (addition or deletion).
    """
    A, B = _supports(est, true)
    iu = np.triu_indices(A.shape[0], k=1)

    def status(M):
        # 0 none, 1 i->j, 2 j->i per upper-triangular pair
        return M[iu].astype(int) + 2 * M.T[iu].astype(int)

    return int(np.count_nonzero(status(A) != status(B)))


def _cpdag_status(c: Cpdag):
    iu = np.triu_indices(c.d, k=1)
    # 0 none, 1 i->j, 2 j->i, 3 undirected
    return (c.directed[iu].astype(int) + 2 * c.directed.T[iu].astype(int)
            + 3 * c.undirected[iu].astype(int))


def shd_c(est: np.ndarray, true: np.ndarray) -> int:
    """SHD between the CPDAGs of two DAGs.

    An undirected edge mismatching a directed one counts 1, like any other
    status difference on a node pair.
    """
    A, B = _supports(est, true)
    ca, cb = cpdag_of(A.astype(float)), cpdag_of(B.astype(float))
    return int(np.count_nonzero(_cpdag_status(ca) != _cpdag_status(cb)))


def tpr(est: np.ndarray, true: np.ndarray) -> float:
    """Correctly directed detected edges / true edge count."""
    A, B = _supports(est, true)
    n_true = int(B.sum())
    if n_true == 0:
        raise ValueError("true graph has no edges")
    return int((A & B).sum()) / n_true


def fdr(est: np.ndarray, true: np.ndarray) -> float:
    """(Detections minus correctly directed) / detections; 0 when nothing detected."""
    A, B = _supports(est, true)
    detected = int(A.sum())
    return (detected - int((A & B).sum())) / max(detected, 1)


# ---------------------------------------------------------------------------
# Structural intervention distance via the parent-adjustment criterion.
# ---------------------------------------------------------------------------

def _descendant_matrix(A: np.ndarray) -> np.ndarray:
    """desc[i, j] = True iff there is a directed path i -> ... -> j (i != j)."""
    d = A.shape[0]
    reach = A.copy()
    for k in range(d):
        reach |= np.outer(reach[:, k], reach[k, :])
    np.fill_diagonal(reach, False)
    return reach


def _ancestors_of_set(A: np.ndarray, nodes) -> set:
    """Nodes with a directed path into the set, including the set itself."""
    desc = _descendant_matrix(A)
    out = set(nodes)
    for v in range(A.shape[0]):
        if any(desc[v, z] for z in nodes):
            out.add(v)
    return out


def d_separated(A: np.ndarray, x: int, y: int, Z) -> bool:
    """d-separation of x and y given Z in the DAG with adjacency A (bool)."""
    Zset = set(int(z) for z in Z)
    if x in Zset or y in Zset:
        raise ValueError("endpoints may not be conditioned on")
    anc_z = _ancestors_of_set(A, Zset) if Zset else set()
    parents = [np.flatnonzero(A[:, v]) for v in range(A.shape[0])]
    children = [np.flatnonzero(A[v, :]) for v in range(A.shape[0])]

    # reachability over (node, direction): "up" = entered against an arrow
    visited = set()
    frontier = [(x, "up")]
    while frontier:
        v, direction = frontier.pop()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        if v == y:
            return False
        if direction == "up" and v not in Zset:
            frontier.extend((int(p), "up") for p in parents[v])
            frontier.extend((int(c), "down") for c in children[v])
        elif direction == "down":
            if v not in Zset:
                frontier.extend((int(c), "down") for c in children[v])
            if v in anc_z:  # collider opened by conditioning on a descendant
                frontier.extend((int(p), "up") for p in parents[v])
    return True


def valid_adjustment(A: np.ndarray, i: int, j: int, Z) -> bool:
    """Adjustment criterion for estimating the effect of i on j in DAG A.

    Z must avoid descendants of nodes on proper causal paths i -> ... -> j and
    block every proper non-causal path (d-separation in the graph with the
    first causal edges out of i removed).
    """
    Zset = set(int(z) for z in Z)
    if i in Zset or j in Zset:
        return False
    desc = _descendant_matrix(A)
    causal_nodes = {w for w in range(A.shape[0])
                    if desc[i, w] and (w == j or desc[w, j])}
    forbidden = set(causal_nodes)
    for w in causal_nodes:
        forbidden.update(np.flatnonzero(desc[w]).tolist())
    if Zset & forbidden:
        return False
    # proper back-door graph: drop edges i -> c entering a causal path
    A2 = A.copy()
    for c in np.flatnonzero(A[i]):
        if c in causal_nodes:
            A2[i, c] = False
    return d_separated(A2, i, j, Zset)


def sid(est: np.ndarray, true: np.ndarray, ceiling: int = SID_DEFAULT_CEILING) -> int:
    """Count ordered pairs whose interventional prediction from est fails in true.

    When est claims a causal path i -> ... -> j, the pair is disrupted unless
    est's parent set of i is a valid adjustment set for (i, j) in true. When
    est claims no effect, the pair is disrupted iff true has a causal path.
    """
    A, B = _supports(est, true)
    if not is_dag(A.astype(float)) or not is_dag(B.astype(float)):
        raise ValueError("sid requires two DAGs")
    d = A.shape[0]
    if d > ceiling:
        raise ValueError(f"sid ceiling exceeded: d={d} > {ceiling}")
    desc_est = _descendant_matrix(A)
    desc_true = _descendant_matrix(B)
    count = 0
    for i in range(d):
        pa_i = np.flatnonzero(A[:, i]).tolist()
        for j in range(d):
            if i == j:
                continue
            if desc_est[i, j]:
                if not valid_adjustment(B, i, j, pa_i):
                    count += 1
            elif desc_true[i, j]:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Noise estimation metrics.
# ---------------------------------------------------------------------------

def noise_error(est_scale, true_scale) -> float:
    """Relative error of noise standard deviations: ||est - true|| / ||true||."""
    est = np.atleast_1d(np.asarray(est_scale, dtype=float))
    true = np.atleast_1d(np.asarray(true_scale, dtype=float))
    if np.any(true <= 0) or np.any(est <= 0):
        raise ValueError("scales must be positive")
    return float(np.linalg.norm(est - true) / np.linalg.norm(true))


def posthoc_noise(ds: Dataset, W_est: np.ndarray, profile: str = "ev"):
    """Residual-variance noise estimate for methods without a concomitant scale.

    Returns the standard deviation: sqrt(||X - W^T X||_F^2 / (d n)) for "ev",
    or per-node sqrt(||x_i - w_i^T x||^2 / n) for "nv".
    """
    W_est = check_weights(W_est)
    resid = ds.X - W_est.T @ ds.X
    if profile == "ev":
        return float(np.sqrt((resid ** 2).sum() / (ds.d * ds.n)))
    if profile == "nv":
        return np.sqrt((resid ** 2).sum(axis=1) / ds.n)
    raise ValueError(f"unknown profile {profile!r}")


def evaluate(W_est: np.ndarray, W_true: np.ndarray,
             est_scale=None, true_scale=None,
             sid_ceiling: int = SID_DEFAULT_CEILING) -> MetricReport:
    """Full metric suite for a thresholded estimate against the ground truth."""
    A, B = _supports(W_est, W_true)
    d = A.shape[0]
    err = None
    if est_scale is not None and true_scale is not None:
        err = noise_error(est_scale, true_scale)
    return MetricReport(
        shd=shd(W_est, W_true),
        shd_normalized=shd(W_est, W_true) / d,
        shd_c=shd_c(W_est, W_true),
        sid=sid(W_est, W_true, ceiling=sid_ceiling),
        tpr=tpr(W_est, W_true),
        fdr=fdr(W_est, W_true),
        edge_count_est=int(A.sum()),
        edge_count_true=int(B.sum()),
        noise_rel_error=err,
    )
