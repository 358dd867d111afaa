"""DAG-recovery and noise-estimation metrics.

All structural metrics operate on supports (nonzero patterns); reversed
edges count once in SHD, and as false positives for FDR / misses for TPR.
Each metric is a core on two validated DAG supports; the public functions
take weight matrices, and `evaluate` validates them once for every core. SID
(Peters & Buehlmann, Neural Computation 2015) builds each graph's descendant
closure once per call and has no size ceiling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import _cpdag, check_weights, is_dag
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
    if not (is_dag(A) and is_dag(B)):
        raise DataError("metrics require two DAGs")
    return A, B


def _on_weights(core):
    """Public form of a metric core: validates two weight matrices, scores their supports."""
    def metric(est: np.ndarray, true: np.ndarray):
        return core(*_supports(est, true))
    metric.__name__ = metric.__qualname__ = core.__name__.lstrip("_")
    metric.__doc__ = core.__doc__
    return metric


def _pair_status(directed, undirected=None):
    """Per node pair (i, j): 0 none, 1 i->j, 2 j->i, +3 undirected (a DAG has none).

    (j, i) holds the code of (i, j) with 1 and 2 swapped, so two graphs'
    codes differ at (i, j) iff at (j, i), and never on the diagonal.
    """
    status = directed + 2 * directed.T.astype(int)
    return status if undirected is None else status + 3 * undirected


def _shd(A, B) -> int:
    """Structural Hamming distance between two DAG supports.

    Per unordered pair: a reversal counts 1; an edge present in exactly one
    graph counts 1 (addition or deletion).
    """
    return int(np.count_nonzero(_pair_status(A) != _pair_status(B))) // 2


def _shd_c(A, B) -> int:
    """SHD between the CPDAGs of two DAGs.

    An undirected edge mismatching a directed one counts 1, like any other
    status difference on a node pair.
    """
    ca, cb = _cpdag(A), _cpdag(B)
    return int(np.count_nonzero(_pair_status(ca.directed, ca.undirected)
                                != _pair_status(cb.directed, cb.undirected))) // 2


def _tpr(A, B) -> float:
    """Correctly directed detected edges / true edge count."""
    n_true = int(B.sum())
    if n_true == 0:
        raise DataError("true graph has no edges")
    return int((A & B).sum()) / n_true


def _fdr(A, B) -> float:
    """(Detections minus correctly directed) / detections; 0 when nothing detected."""
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


class _Dag:
    """A DAG support with its descendant closure and parent/child lists."""

    def __init__(self, A: np.ndarray):
        self.desc = _descendant_matrix(A)
        self.parents = [np.flatnonzero(col).tolist() for col in A.T]
        self.children = [np.flatnonzero(row).tolist() for row in A]

    def ancestors(self, Z: np.ndarray) -> np.ndarray:
        """Mask of the nodes in Z and of every node with a directed path into Z."""
        return Z | self.desc[:, Z].any(axis=1)

    def connected(self, x, y, Z, anc_z, x_children) -> bool:
        """True iff a path x .. y is active given Z (not d-separated).

        Bayes-ball search over (node, direction) states, where "up" means the
        node was entered against an arrow. x_children replaces x's children,
        which cuts x's other outgoing edges from the graph.
        """
        in_z, in_anc = Z.tolist(), anc_z.tolist()
        seen_up, seen_down = bytearray(len(in_z)), bytearray(len(in_z))
        stack = [(x, True)]
        while stack:
            v, up = stack.pop()
            seen = seen_up if up else seen_down
            if seen[v]:
                continue
            seen[v] = 1
            if v == y:
                return True
            kids = x_children if v == x else self.children[v]
            if not in_z[v]:
                stack.extend((c, False) for c in kids)
                if up:
                    stack.extend((p, True) for p in self.parents[v])
            if not up and in_anc[v]:  # collider opened by conditioning on a descendant
                stack.extend((p, True) for p in self.parents[v])
        return False

    def adjusts(self, i, j, Z, anc_z) -> bool:
        """Adjustment criterion for the effect of i on j, with i, j outside Z.

        Z must avoid the causal nodes (on directed paths i -> ... -> j, j
        included) and their descendants, and d-separate i and j once i's
        edges into causal nodes are removed. Removing them changes no
        ancestor of Z when that first test passes, since an edge i -> c only
        leads to descendants of c, all forbidden; so the ancestors of Z in
        this graph (anc_z) serve the reduced graph as well.
        """
        causal = self.desc[i] & self.desc[:, j]
        causal[j] = self.desc[i, j]
        forbidden = causal | self.desc[causal].any(axis=0)
        if (Z & forbidden).any():
            return False
        kept = [c for c in self.children[i] if not causal[c]]
        return not self.connected(i, j, Z, anc_z, kept)


def d_separated(A: np.ndarray, x: int, y: int, Z) -> bool:
    """d-separation of x and y given Z in the DAG with adjacency A (bool)."""
    Z = np.isin(np.arange(A.shape[0]), list(Z))
    if Z[x] or Z[y]:
        raise ValueError("endpoints may not be conditioned on")
    g = _Dag(A)
    return not g.connected(x, y, Z, g.ancestors(Z), g.children[x])


def valid_adjustment(A: np.ndarray, i: int, j: int, Z) -> bool:
    """Adjustment criterion for estimating the effect of i on j in DAG A.

    Z must avoid descendants of nodes on proper causal paths i -> ... -> j and
    block every proper non-causal path (d-separation in the graph with the
    first causal edges out of i removed).
    """
    Z = np.isin(np.arange(A.shape[0]), list(Z))
    if Z[i] or Z[j]:
        return False
    g = _Dag(A)
    return g.adjusts(i, j, Z, g.ancestors(Z))


def _sid(est, true) -> int:
    """Structural intervention distance (Peters & Buehlmann, Neural Computation 2015).

    Counts ordered pairs (i, j) whose interventional prediction from est
    fails in true. When est claims a causal path i -> ... -> j, the pair is
    disrupted unless est's parent set of i is a valid adjustment set for
    (i, j) in true. When est claims no effect, the pair is disrupted iff true
    has a causal path.

    Both descendant closures and true's parent and child lists are built
    once, O(d^3); each source i gets the ancestor mask of Z = pa_est(i) once.
    Each pair that est connects then costs O(d * |causal nodes|) for the
    forbidden set plus one O(d + edges) back-door search in true, so no
    graph-wide work repeats per pair.
    """
    reach, g = _descendant_matrix(est), _Dag(true)
    count = int(np.count_nonzero(g.desc & ~reach))
    for i in range(est.shape[0]):
        targets = np.flatnonzero(reach[i])
        if targets.size == 0:
            continue
        Z = est[:, i]  # est's parents of i; a DAG never has i or j here
        anc_z = g.ancestors(Z)
        count += sum(not g.adjusts(i, int(j), Z, anc_z) for j in targets)
    return count


shd, shd_c, tpr, fdr, sid = map(_on_weights, (_shd, _shd_c, _tpr, _fdr, _sid))


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
             est_scale=None, true_scale=None) -> MetricReport:
    """Full metric suite for a thresholded estimate against the ground truth."""
    A, B = _supports(W_est, W_true)
    err = None
    if est_scale is not None and true_scale is not None:
        err = noise_error(est_scale, true_scale)
    dist = _shd(A, B)
    return MetricReport(
        shd=dist,
        shd_normalized=dist / A.shape[0],
        shd_c=_shd_c(A, B),
        sid=_sid(A, B),
        tpr=_tpr(A, B),
        fdr=_fdr(A, B),
        edge_count_est=int(A.sum()),
        edge_count_true=int(B.sum()),
        noise_rel_error=err,
    )
