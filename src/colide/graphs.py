"""Weighted digraphs, random DAG generation, and CPDAG conversion.

A graph is a dense d x d float matrix W with zero diagonal; W[i, j] is the
weight of the edge i -> j. Supports are the same matrices with 0/1 entries.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "GraphModelSpec",
    "Cpdag",
    "check_weights",
    "is_dag",
    "topological_order",
    "sample_er_dag",
    "sample_sf_dag",
    "assign_edge_weights",
    "cpdag_of",
    "read_matrix_csv",
    "write_matrix_csv",
    "save_adjacency_csv",
    "load_adjacency_csv",
]


@dataclass(frozen=True)
class GraphModelSpec:
    """Random graph ensemble: Erdos-Renyi ("ER") or scale-free ("SF").

    k is the target average nodal degree; weight_ranges is a list of disjoint
    closed intervals for uniform edge-weight sampling.
    """

    model: str
    d: int
    k: float
    weight_ranges: tuple = field(default=((0.5, 2.0), (-2.0, -0.5)))

    def __post_init__(self):
        if self.model not in ("ER", "SF"):
            raise ValueError(f"unknown graph model {self.model!r}")
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if not (1 <= self.k < self.d):
            raise ValueError("need 1 <= k < d")


@dataclass(frozen=True)
class Cpdag:
    """Completed partially directed acyclic graph.

    directed[i, j] marks a compelled edge i -> j; undirected is a symmetric
    boolean matrix of reversible edges. The two supports are disjoint.
    """

    directed: np.ndarray
    undirected: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, Cpdag)
            and np.array_equal(self.directed, other.directed)
            and np.array_equal(self.undirected, other.undirected)
        )


def check_weights(W: np.ndarray) -> np.ndarray:
    """Validate a weight matrix: square, finite, zero diagonal."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] < 1:
        raise DataError(f"expected square matrix, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise DataError("weight matrix has non-finite entries")
    if np.any(np.diag(W) != 0):
        raise DataError("weight matrix diagonal must be zero")
    return W


def topological_order(W: np.ndarray):
    """Kahn's algorithm on the support {|W[i,j]| > 0}; a boolean W is read as the support.

    Returns a list of node indices in topological order, or None if the
    support contains a directed cycle.
    """
    A = np.asarray(W)
    if A.dtype != bool:
        A = np.abs(A.astype(float)) > 0
    d = A.shape[0]
    indeg = A.sum(axis=0).astype(int)
    ready = [i for i in range(d) if indeg[i] == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for v in np.flatnonzero(A[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(int(v))
    return order if len(order) == d else None


def is_dag(W: np.ndarray) -> bool:
    """True iff the support {|W[i,j]| > 0} is acyclic; threshold W first to drop small weights."""
    return topological_order(W) is not None


def sample_er_dag(spec: GraphModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample an Erdos-Renyi DAG support with edge probability k/(d-1).

    An undirected G(d, p) graph is drawn, then oriented along a uniformly
    random node permutation (earlier -> later), which guarantees acyclicity.
    Expected edge count is d*k/2.
    """
    if spec.model != "ER":
        raise ValueError("spec.model must be 'ER'")
    d = spec.d
    p = spec.k / (d - 1)
    iu = np.triu_indices(d, k=1)
    present = rng.random(len(iu[0])) < p
    perm = rng.permutation(d)  # perm[i] = position of node i in the order
    pos = np.empty(d, dtype=int)
    pos[perm] = np.arange(d)
    i, j = iu[0][present], iu[1][present]
    forward = pos[i] < pos[j]
    B = np.zeros((d, d))
    B[np.where(forward, i, j), np.where(forward, j, i)] = 1.0
    return B


def sample_sf_dag(spec: GraphModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample a scale-free DAG support by preferential attachment.

    Each new node receives m = round(k/2) edges from existing nodes chosen
    proportionally to their current degree; orienting existing -> new makes
    the attachment order a topological order. Edge count is m*(d-m) exactly.
    """
    if spec.model != "SF":
        raise ValueError("spec.model must be 'SF'")
    d = spec.d
    m = int(np.clip(round(spec.k / 2), 1, d - 1))
    B = np.zeros((d, d))
    degree = np.zeros(d)
    for new in range(m, d):
        if degree[:new].sum() == 0:
            targets = np.arange(new)[:m]  # first attachment: all seed nodes
        else:
            targets = _weighted_distinct(np.arange(new), degree[:new], m, rng)
        for t in targets:
            B[t, new] = 1.0
            degree[t] += 1
            degree[new] += 1
    return B


def _weighted_distinct(candidates, weights, m, rng):
    """Draw m distinct candidates with probability proportional to weights."""
    chosen = []
    w = weights.astype(float).copy()
    for _ in range(min(m, len(candidates))):
        p = w / w.sum()
        idx = rng.choice(len(candidates), p=p)
        chosen.append(candidates[idx])
        w[idx] = 0.0
    return np.array(chosen)


def assign_edge_weights(support: np.ndarray, ranges, rng: np.random.Generator) -> np.ndarray:
    """Replace each nonzero support entry with a uniform draw over a union of intervals.

    An interval is picked with probability proportional to its length
    (degenerate [a, a] intervals get equal residual mass), then the weight is
    drawn uniformly within it. Zeros are preserved exactly.
    """
    ranges = [tuple(r) for r in ranges]
    if not ranges:
        raise ValueError("empty range list")
    for lo, hi in ranges:
        if hi < lo:
            raise ValueError(f"bad interval [{lo}, {hi}]")
    support = np.asarray(support, dtype=float)
    mask = support != 0
    n_edges = int(mask.sum())
    lengths = np.array([hi - lo for lo, hi in ranges], dtype=float)
    if lengths.sum() > 0:
        probs = lengths / lengths.sum()
    else:
        probs = np.full(len(ranges), 1.0 / len(ranges))
    which = rng.choice(len(ranges), size=n_edges, p=probs)
    draws = np.array([rng.uniform(*ranges[w]) for w in which])
    W = np.zeros_like(support)
    W[mask] = draws
    return W


# ---------------------------------------------------------------------------
# CPDAG of a DAG: skeleton + v-structures + Meek rules R1-R3.
# ---------------------------------------------------------------------------

def cpdag_of(W: np.ndarray) -> Cpdag:
    """Return the CPDAG of the Markov equivalence class of the DAG W.

    V-structure edges and Meek-compelled edges stay directed; the remaining
    skeleton edges become undirected.
    """
    B = check_weights(W) != 0
    if not is_dag(B):
        raise DataError("input graph is not a DAG")
    return _cpdag(B)


def _cpdag(B: np.ndarray) -> Cpdag:
    """cpdag_of on a boolean support already known to be a DAG (unchecked)."""
    adj = B | B.T
    D = np.zeros_like(B)  # compelled i -> j
    # v-structures: i -> j <- k with i, k non-adjacent
    for j in range(B.shape[0]):
        pa = np.flatnonzero(B[:, j])
        if len(pa) > 1:
            apart = ~adj[np.ix_(pa, pa)]
            np.fill_diagonal(apart, False)
            D[pa[apart.any(axis=1)], j] = True
    return Cpdag(*_meek_closure(D, adj & ~(D | D.T), adj))


def _meek_closure(D: np.ndarray, U: np.ndarray, adj: np.ndarray):
    """Apply Meek rules R1-R3 until no undirected edge can be oriented.

    adj is the skeleton. Starting from a DAG's skeleton and v-structures (no
    background knowledge), R1-R3 are complete (Meek, UAI 1995); R4 is only
    needed when extra orientations are imposed. Each sweep visits the
    undirected edges in row-major order, orienting as it goes.
    """
    D, U = D.copy(), U.copy()
    changed = True
    while changed:
        changed = False
        for a, b in np.argwhere(U):
            if not U[a, b]:  # oriented earlier in this sweep
                continue
            # R1: c -> a, a - b, c and b non-adjacent  =>  a -> b
            # R2: a -> c -> b and a - b  =>  a -> b
            # R3: a - c, a - e, c -> b, e -> b, c and e non-adjacent  =>  a -> b
            #     (adj has a False diagonal, so ~adj counts each c once on it)
            c = np.flatnonzero(U[a] & D[:, b])
            if ((D[:, a] & ~adj[:, b]).any() or (D[a] & D[:, b]).any()
                    or np.count_nonzero(~adj[np.ix_(c, c)]) > len(c)):
                D[a, b] = True
                U[a, b] = U[b, a] = False
                changed = True
    return D, U


# ---------------------------------------------------------------------------
# CSV matrix files: one row per line, comma-separated, LF line endings. An
# adjacency file has row i = outgoing weights of node i; a dataset file has
# one row per sample and may start with a header row of variable names.
# ---------------------------------------------------------------------------

def read_matrix_csv(path, has_header: bool = False):
    """Read a numeric CSV file as (2-D float array, header names or None).

    Blank lines are skipped. An empty, ragged or non-numeric file is a DataError.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"empty CSV file: {path}")
    names = None
    if has_header:
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"CSV file has a header but no rows: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"ragged rows in CSV file: {path}")
    try:
        return np.array(rows, dtype=float), names
    except ValueError as exc:
        raise DataError(f"non-numeric cell in CSV file {path}: {exc}") from None


def write_matrix_csv(M: np.ndarray, path, header=None) -> None:
    """Write M row by row with round-trip exact %.17g values, after an optional header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in M)


def save_adjacency_csv(W: np.ndarray, path) -> None:
    write_matrix_csv(check_weights(W), path)


def load_adjacency_csv(path) -> np.ndarray:
    return check_weights(read_matrix_csv(path)[0])
