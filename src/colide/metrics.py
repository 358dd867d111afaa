"""DAG-recovery and noise-estimation metrics.

All structural metrics operate on supports (nonzero patterns); reversed
edges count once in SHD, and as false positives for FDR / misses for TPR.
Each metric is a core on two `_Dag`s: a validated support with its parent
and child lists (one np.nonzero), topological order and descendant closure
(int bitsets), built once per graph in O(d + edges * d / 64) word operations.
The public functions take weight matrices, and `evaluate` builds the two
`_Dag`s once for every core. SID (Peters & Buehlmann, Neural Computation
2015) costs one mask per source node plus one O(d + edges) Bayes-ball walk
per group of targets that keep the same children of the source, and has no
size ceiling. SHD-C labels compelled edges in one topological pass
(Chickering, UAI 1995) on int bitsets, O(d^2 / 64) word operations per graph.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CyclicGraphError, DataError
from .graphs import _cpdag, _structure, _unpack_bits, check_weights
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


class _Dag:
    """A DAG support with its topological order, parent and child lists and descendant closure.

    graphs._structure gives the lists and the order once; a cycle raises
    CyclicGraphError naming role. The closure is one reverse-topological pass
    over int bitsets, bits[v] = OR of bits[c] | 1 << c over v's children c:
    a d-bit OR per edge, O(edges * d / 64) word operations, and one unpack.
    """

    def __init__(self, A: np.ndarray, role: str = "graph"):
        order, self.parents, self.children = _structure(A)
        if order is None:
            raise CyclicGraphError(role)
        self.A, self.order = A, order
        bits = [0] * len(order)
        for v in reversed(order):
            for c in self.children[v]:
                bits[v] |= bits[c] | 1 << c
        self.desc = _unpack_bits(bits, len(order))  # desc[i, j]: a directed path i -> ... -> j

    def ancestors(self, Z: np.ndarray) -> np.ndarray:
        """Mask of the nodes in Z and of every node with a directed path into Z."""
        return Z | self.desc[:, Z].any(axis=1)

    def reached(self, x, in_z, in_anc, x_children) -> np.ndarray:
        """Mask of the nodes y with a path x .. y active given Z (not d-separated from x).

        in_z and in_anc are Z and ancestors(Z) as lists of bools. A Bayes-ball
        search over (node, direction) states, "up" meaning entered against an
        arrow, expands each state once: O(d + edges) per walk, answering every
        target. x_children replaces x's children, cutting x's other out-edges.
        """
        seen_up, seen_down = bytearray(len(in_z)), bytearray(len(in_z))
        up, down = [x], []  # nodes to enter against an arrow / along one
        while up or down:
            if up:
                v = up.pop()
                if seen_up[v]:
                    continue
                seen_up[v] = 1
                if not in_z[v]:
                    down.extend(x_children if v == x else self.children[v])
                    up.extend(self.parents[v])
            else:
                v = down.pop()
                if seen_down[v]:
                    continue
                seen_down[v] = 1
                if not in_z[v]:
                    down.extend(x_children if v == x else self.children[v])
                if in_anc[v]:  # collider opened by conditioning on a descendant
                    up.extend(self.parents[v])
        return np.frombuffer(seen_up, dtype=bool) | np.frombuffer(seen_down, dtype=bool)

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
        return not self.reached(i, Z.tolist(), anc_z.tolist(), kept)[j]


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
    ca, cb = (_cpdag(g.A, g.order, g.parents) for g in (est, true))
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

def d_separated(A: np.ndarray, x: int, y: int, Z) -> bool:
    """d-separation of x and y given Z in the DAG with adjacency A (bool)."""
    Z = np.isin(np.arange(A.shape[0]), list(Z))
    if Z[x] or Z[y]:
        raise ValueError("endpoints may not be conditioned on")
    g = _Dag(A)
    return not g.reached(x, Z.tolist(), g.ancestors(Z).tolist(), g.children[x])[y]


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
