"""Weighted digraphs, random DAG generation, and CPDAG conversion.

The CPDAG comes from Chickering's compelled-edge labelling (UAI 1995): one
pass over a topological order, O(d^2) on a dense support.

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
    return _structure(A if A.dtype == bool else np.abs(A.astype(float)) > 0)[0]


def _structure(A: np.ndarray):
    """(order, parents, children) of a boolean support: ascending lists from one np.nonzero, and
    Kahn's order over the child lists with a LIFO ready list (None on a directed cycle)."""
    parents, children = [[] for _ in A], [[] for _ in A]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(A))):
        parents[j].append(i)
        children[i].append(j)
    indeg = [len(p) for p in parents]
    ready = [v for v, n in enumerate(indeg) if not n]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return order if len(order) == len(A) else None, parents, children


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

    An interval is picked with probability proportional to its length, then
    the weight is drawn uniformly within it, so a degenerate [a, a] interval
    is never picked beside one of positive length; when every interval is
    degenerate, each is picked with equal probability. Zeros are preserved
    exactly.
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
# CPDAG of a DAG: Chickering's compelled-edge labelling (UAI 1995).
# ---------------------------------------------------------------------------

def cpdag_of(W: np.ndarray) -> Cpdag:
    """Return the CPDAG of the Markov equivalence class of the DAG W.

    Compelled edges (those directed alike in every member of the class) stay
    directed; the remaining skeleton edges become undirected.
    """
    B = check_weights(W) != 0
    order, parents, _ = _structure(B)
    if order is None:
        raise DataError("input graph is not a DAG")
    return _cpdag(B, order, parents)


def _cpdag(B: np.ndarray, order, parents) -> Cpdag:
    """cpdag_of on a boolean DAG support, given a topological order and parent lists (unchecked).

    Chickering's Find-Compelled (UAI 1995) labels every edge in one pass over
    the nodes y in topological order. Let x be y's highest-ranked parent;
    the edges into x are already labelled. A compelled w -> x with w not a
    parent of y compels every edge into y. Otherwise y inherits x's
    compelled parents, and then a parent z of y that is not a parent of x
    (a v-structure x -> y <- z) compels all of y's edges; without one, the
    edges into y not yet compelled are reversible. Both parent sets are int
    bitsets (bit i: node i): a node costs a max over its parents and a few
    d-bit operations, O(d^2 / 64) word operations in all, and one unpack.
    """
    rank = {v: r for r, v in enumerate(order)}
    pb = [sum(1 << i for i in p) for p in parents]
    comp = [0] * len(order)  # comp[y] bit i: i -> y is compelled
    for y in order:
        if not parents[y]:
            continue
        x = max(parents[y], key=rank.__getitem__)
        # a compelled w -> x with w outside pa(y), or a parent of y besides x
        # outside pa(x) (x itself is one, as B has no self-loops)
        comp[y] = pb[y] if comp[x] & ~pb[y] or (pb[y] & ~pb[x]).bit_count() > 1 else comp[x]
    D = _unpack_bits(comp, len(order)).T  # compelled i -> j
    U = B & ~D
    return Cpdag(D, U | U.T)


def _unpack_bits(bits, d: int) -> np.ndarray:
    """Boolean matrix whose row r holds the low d bits of the int bits[r], bit i in column i."""
    rows = np.frombuffer(b"".join(b.to_bytes((d + 7) // 8, "little") for b in bits), dtype=np.uint8)
    return np.unpackbits(rows.reshape(len(bits), -1), axis=1, count=d, bitorder="little").view(bool)


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
