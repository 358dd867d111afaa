"""DAG-recovery and noise-estimation metrics.

All structural metrics operate on supports (nonzero patterns); reversed
edges count once in SHD, and as false positives for FDR / misses for TPR.
Each metric is a core on two `graphs._Dag`s, the structure object that
`sem.simulate_sem` and `graphs.cpdag_of` also read: a validated support with
its parent and child lists and topological order, and a descendant closure
built on SID's first read in O(d + edges * d / 64) word operations. The public
functions take weight matrices, and `evaluate` builds the two `_Dag`s once
for every core. SID (Peters & Buehlmann, Neural Computation 2015) costs one
mask per source node plus one O(d + edges) Bayes-ball walk (`_Dag.reached`)
per group of targets that keep the same children of the source, and has no
size ceiling. SHD-C compares the two graphs' `_Dag.cpdag()`, Chickering's
compelled-edge labelling (UAI 1995), O(d^2 / 64) word operations per graph.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import _Dag, check_weights
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
    return _Dag(A, "estimate"), _Dag(B, "truth")


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


def _shd(est, true) -> int:
    """Structural Hamming distance between two DAG supports.

    Per unordered pair: a reversal counts 1; an edge present in exactly one
    graph counts 1 (addition or deletion).
    """
    return int(np.count_nonzero(_pair_status(est.A) != _pair_status(true.A))) // 2


def _shd_c(est, true) -> int:
    """SHD between the CPDAGs of two DAGs.

    An undirected edge mismatching a directed one counts 1, like any other
    status difference on a node pair.
    """
    ca, cb = est.cpdag(), true.cpdag()
    return int(np.count_nonzero(_pair_status(ca.directed, ca.undirected)
                                != _pair_status(cb.directed, cb.undirected))) // 2


def _tpr(est, true) -> float:
    """Correctly directed detected edges / true edge count."""
    n_true = int(true.A.sum())
    if n_true == 0:
        raise DataError("true graph has no edges")
    return int((est.A & true.A).sum()) / n_true


def _fdr(est, true) -> float:
    """(Detections minus correctly directed) / detections; 0 when nothing detected."""
    detected = int(est.A.sum())
    return (detected - int((est.A & true.A).sum())) / max(detected, 1)


# ---------------------------------------------------------------------------
# Structural intervention distance via the parent-adjustment criterion.
# ---------------------------------------------------------------------------

def _sid(est, true) -> int:
    """Structural intervention distance (Peters & Buehlmann, Neural Computation 2015).

    Counts ordered pairs (i, j) whose interventional prediction from est
    fails in true. When est claims a causal path i -> ... -> j, the pair is
    disrupted unless est's parent set Z of i is a valid adjustment set for
    (i, j) in true. When est claims no effect, the pair is disrupted iff true
    has a causal path.

    The work is organised per source i, as Peters & Buehlmann do. Z meets
    the forbidden set of (i, j) iff some w below i in true is in Z or above
    it and is j or above j, so with T = desc(i) & anc(Z) one O(d * |T|) mask
    T | desc[T] tests every target at once. The other targets need Z to
    d-separate i and j once i's children on causal paths to j are cut; the
    ones that keep the same children share one O(d + edges) Bayes-ball walk
    from i. A source costs one walk per kept-children set, not one per pair.
    """
    count = int(np.count_nonzero(true.desc & ~est.desc))
    for i in range(est.A.shape[0]):
        targets = np.flatnonzero(est.desc[i])
        if targets.size == 0:
            continue
        Z = est.A[:, i]  # est's parents of i; a DAG never has i or j here
        anc_z = true.ancestors(Z)
        T = true.desc[i] & anc_z
        hit = (T | true.desc[T].any(axis=0))[targets]
        count += int(np.count_nonzero(hit))
        targets = targets[~hit]
        kids = np.array(true.children[i], dtype=int)
        # kept[t, k]: child k of i is neither targets[t] nor above it, so its edge stays
        kept = ~(true.desc[kids][:, targets] | (kids[:, None] == targets)).T
        groups = {}  # bytes keys: tuples of many sizes would pile up in CPython's free lists
        for t, key in enumerate(np.packbits(kept, axis=1)):
            groups.setdefault(key.tobytes(), []).append(t)
        in_z, in_anc = Z.tolist(), anc_z.tolist()
        for rows in groups.values():
            reached = true.reached(i, in_z, in_anc, kids[kept[rows[0]]].tolist())
            count += int(np.count_nonzero(reached[targets[rows]]))
    return count


shd, shd_c, tpr, fdr, sid = map(_on_weights, (_shd, _shd_c, _tpr, _fdr, _sid))


# ---------------------------------------------------------------------------
# Noise estimation metrics.
# ---------------------------------------------------------------------------

def noise_error(est_scale, true_scale) -> float:
    """Relative error ||est - true|| / ||true|| of noise sds; one estimate is scored against the RMS of d truths."""
    est = np.atleast_1d(np.asarray(est_scale, dtype=float))
    true = np.atleast_1d(np.asarray(true_scale, dtype=float))
    if np.any(true <= 0) or np.any(est <= 0):
        raise ValueError("scales must be positive")
    if len(est) == 1 < len(true):
        true = np.array([np.sqrt(np.mean(true ** 2))])
    elif len(est) != len(true):
        raise ValueError(f"{len(est)} noise estimates against {len(true)} true scales")
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
    est, true = _supports(W_est, W_true)
    err = None
    if est_scale is not None and true_scale is not None:
        err = noise_error(est_scale, true_scale)
    dist = _shd(est, true)
    return MetricReport(
        shd=dist,
        shd_normalized=dist / est.A.shape[0],
        shd_c=_shd_c(est, true),
        sid=_sid(est, true),
        tpr=_tpr(est, true),
        fdr=_fdr(est, true),
        edge_count_est=int(est.A.sum()),
        edge_count_true=int(true.A.sum()),
        noise_rel_error=err,
    )
