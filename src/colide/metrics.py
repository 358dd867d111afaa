"""DAG-recovery and noise-estimation metrics.

All structural metrics operate on supports (nonzero patterns); reversed
edges count once in SHD, and as false positives for FDR / misses for TPR.
Each metric is a core on two `graphs._Dag`s, which `evaluate` builds once,
and reads their Python-int bitsets, never a (d, d) array. With n_e and n_t
the edge counts, same = sum_i popcount(child_e[i] & child_t[i]) and rev =
sum_i popcount(child_e[i] & parent_t[i]): SHD = n_e + n_t - 2 same - rev,
TPR = same / n_t and FDR = (n_e - same) / max(n_e, 1). SHD-C reads Chickering's
compelled-edge labelling (UAI 1995, `_Dag.compelled_bits`) as the masks
In[y] = parent[y] | T(parent & ~compelled)[y], T the bit transpose: bit x of
In[y] is x -> y compelled or x - y undirected, so the pair (x in In[y], y in
In[x]) is the CPDAG status of {x, y}, and with D = In_e ^ In_t, SHD-C =
sum popcount(D | T(D)) / 2. SID (Peters & Buehlmann, Neural Computation 2015)
costs per source node one int mask, which tests the forbidden set for all
targets, and at most one Bayes-ball walk (`_Dag.reached`) for the rest.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import _Dag, _transpose, _union, check_weights
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


def _common(est_bits, true_bits) -> int:
    """Edges i -> j set in both bit matrices: sum over i of popcount(est_bits[i] & true_bits[i])."""
    return sum(map(int.bit_count, map(operator.and_, est_bits, true_bits)))


def _shd(est, true) -> int:
    """Structural Hamming distance between two DAG supports.

    Per unordered pair: a reversal counts 1; an edge present in exactly one
    graph counts 1 (addition or deletion).
    """
    same = _common(est.child_bits, true.child_bits)
    return est.n_edges + true.n_edges - 2 * same - _common(est.child_bits, true.parent_bits)


def _arrows_in(g) -> list:
    """Bit x of row y: x -> y is compelled or x - y is undirected in g's CPDAG."""
    return list(map(operator.or_, g.parent_bits,
                    _transpose([p & ~c for p, c in zip(g.parent_bits, g.compelled_bits)])))


def _shd_c(est, true) -> int:
    """SHD between the CPDAGs of two DAGs: each node pair whose status differs (undirected included) counts 1."""
    diff = list(map(operator.xor, _arrows_in(est), _arrows_in(true)))
    return sum(map(int.bit_count, map(operator.or_, diff, _transpose(diff)))) // 2


def _tpr(est, true) -> float:
    """Correctly directed detected edges / true edge count."""
    if not true.n_edges:
        raise DataError("true graph has no edges")
    return _common(est.child_bits, true.child_bits) / true.n_edges


def _fdr(est, true) -> float:
    """(Detections minus correctly directed) / detections; 0 when nothing detected."""
    return (est.n_edges - _common(est.child_bits, true.child_bits)) / max(est.n_edges, 1)


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

    The work is organised per source i, as Peters & Buehlmann do, on int
    bitsets. Z meets the forbidden set of (i, j) iff some w below i in true
    is in Z or above it and is j or above j, so with T = desc(i) & anc(Z) the
    one mask T | desc[T] tests every target at once. The other targets need Z
    to d-separate i and j once the children k of i on causal paths to j are
    cut, those whose cut mask desc[k] | k holds j. A child in anc(Z) is in T,
    so it cuts no remaining target; a child outside anc(Z) passes the ball
    only down to its descendants, which hold no target it does not cut. So
    one Bayes-ball walk from i, keeping its children in anc(Z), answers every
    remaining target: a source costs one mask and at most one walk.
    """
    t_desc, t_anc, count = true.desc_bits, true.anc_bits, 0
    for i, targets in enumerate(est.desc_bits):
        count += (t_desc[i] & ~targets).bit_count()
        if not targets:
            continue
        Z = est.parent_bits[i]  # a DAG never has i or j here
        anc_z = Z | _union(t_anc, Z)
        T = t_desc[i] & anc_z
        bad = T | _union(t_desc, T)
        if targets & ~bad:
            bad |= true.reached(i, Z, anc_z, true.child_bits[i] & anc_z)
        count += (targets & bad).bit_count()
    return count


shd, shd_c, tpr, fdr, sid = map(_on_weights, (_shd, _shd_c, _tpr, _fdr, _sid))


# ---------------------------------------------------------------------------
# Noise estimation metrics.
# ---------------------------------------------------------------------------

def noise_error(est_scale, true_scale) -> float:
    """Relative error ||est - true|| / ||true|| of noise sds; one estimate is scored against the RMS of d truths."""
    est = np.atleast_1d(np.asarray(est_scale, dtype=float))
    true = np.atleast_1d(np.asarray(true_scale, dtype=float))
    if not (np.all(true > 0) and np.all(est > 0)):  # NaN fails
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
        shd_normalized=dist / len(est.order),
        shd_c=_shd_c(est, true),
        sid=_sid(est, true),
        tpr=_tpr(est, true),
        fdr=_fdr(est, true),
        edge_count_est=est.n_edges,
        edge_count_true=true.n_edges,
        noise_rel_error=err,
    )
