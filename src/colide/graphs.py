"""Weighted digraphs, random DAG generation, and the one DAG-structure object.

A graph is a dense d x d float matrix W with zero diagonal; W[i, j] is the
weight of the edge i -> j. Supports are the same matrices with 0/1 entries.
_Dag builds a support's parent and child lists and topological order once,
and its descendant closure on first read; it is the one place that reports a
directed cycle, and sem, metrics, topological_order and cpdag_of read it. Its
cpdag() is Chickering's compelled-edge labelling (UAI 1995).
"""

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CyclicGraphError, DataError

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
        _check_ranges(self.weight_ranges)


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
    W = _square_finite(W)
    if np.any(np.diag(W) != 0):
        raise DataError("weight matrix diagonal must be zero")
    return W


def _square_finite(W) -> np.ndarray:
    """W as a float matrix; a DataError unless it is square, nonempty and finite."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] < 1:
        raise DataError(f"expected square matrix, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise DataError("weight matrix has non-finite entries")
    return W


def topological_order(W: np.ndarray):
    """Kahn's order of _Dag on the support {W[i,j] != 0}; a boolean W is read as the support.

    Returns a list of node indices in topological order, or None if the
    support has a directed cycle, a self-loop included. W not square or not finite is a DataError.
    """
    try:
        return _Dag(_square_finite(W) != 0).order
    except CyclicGraphError:
        return None


def is_dag(W: np.ndarray) -> bool:
    """True iff the support {W[i,j] != 0} is acyclic (topological_order); threshold W first to drop small weights."""
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


def _check_ranges(ranges) -> list:
    """ranges as a list of (lo, hi) tuples; ValueError unless it is nonempty and each lo <= hi is finite."""
    ranges = [tuple(r) for r in ranges]
    if not ranges:
        raise ValueError("empty range list")
    for lo, hi in ranges:
        if not -np.inf < lo <= hi < np.inf:  # NaN fails
            raise ValueError(f"bad interval [{lo}, {hi}]: need finite lo <= hi")
    return ranges


def assign_edge_weights(support: np.ndarray, ranges, rng: np.random.Generator) -> np.ndarray:
    """Replace each nonzero support entry with a uniform draw over a union of intervals.

    An interval is picked with probability proportional to its length, then
    the weight is drawn uniformly within it, so a degenerate [a, a] interval
    is never picked beside one of positive length; when every interval is
    degenerate, each is picked with equal probability. Zeros are preserved
    exactly.
    """
    ranges = _check_ranges(ranges)
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
# DAG structure: lists, order, descendant closure, Bayes-ball walk and CPDAG.
# ---------------------------------------------------------------------------

class _Dag:
    """A DAG support with its parent and child lists, topological order and descendant closure.

    The lists are ascending, from one np.nonzero; the order is Kahn's over
    the child lists with a LIFO ready list, and a directed cycle raises
    CyclicGraphError naming role. The closure is one reverse-topological pass
    over int bitsets, bits[v] = OR of bits[c] | 1 << c over v's children c:
    a d-bit OR per edge, O(edges * d / 64) word operations, and one unpack.
    """

    def __init__(self, A: np.ndarray, role: str = "graph"):
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
        if len(order) != len(A):
            raise CyclicGraphError(role)
        self.A, self.order, self.parents, self.children = A, order, parents, children

    @functools.cached_property
    def desc(self) -> np.ndarray:
        """desc[i, j]: a directed path i -> ... -> j; built on first read, which only SID makes."""
        bits = [0] * len(self.order)
        for v in reversed(self.order):
            for c in self.children[v]:
                bits[v] |= bits[c] | 1 << c
        return _unpack_bits(bits, len(self.order))

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
        children, parents = self.children, self.parents  # loads on self are slower once desc is cached
        while up or down:
            if up:
                v = up.pop()
                if seen_up[v]:
                    continue
                seen_up[v] = 1
                if not in_z[v]:
                    down.extend(x_children if v == x else children[v])
                    up.extend(parents[v])
            else:
                v = down.pop()
                if seen_down[v]:
                    continue
                seen_down[v] = 1
                if not in_z[v]:
                    down.extend(x_children if v == x else children[v])
                if in_anc[v]:  # collider opened by conditioning on a descendant
                    up.extend(parents[v])
        return np.frombuffer(seen_up, dtype=bool) | np.frombuffer(seen_down, dtype=bool)

    def cpdag(self) -> Cpdag:
        """The CPDAG of this DAG's Markov equivalence class (cpdag_of).

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
        rank = {v: r for r, v in enumerate(self.order)}
        pb = [sum(1 << i for i in p) for p in self.parents]
        comp = [0] * len(self.order)  # comp[y] bit i: i -> y is compelled
        for y in self.order:
            if not self.parents[y]:
                continue
            x = max(self.parents[y], key=rank.__getitem__)
            # a compelled w -> x with w outside pa(y), or a parent of y besides x
            # outside pa(x) (x itself is one, as a DAG has no self-loops)
            comp[y] = pb[y] if comp[x] & ~pb[y] or (pb[y] & ~pb[x]).bit_count() > 1 else comp[x]
        D = _unpack_bits(comp, len(self.order)).T  # compelled i -> j
        U = self.A & ~D
        return Cpdag(D, U | U.T)


def cpdag_of(W: np.ndarray) -> Cpdag:
    """Return the CPDAG of the Markov equivalence class of the DAG W.

    Compelled edges (those directed alike in every member of the class) stay
    directed; the remaining skeleton edges become undirected.
    """
    return _Dag(check_weights(W) != 0, "input graph").cpdag()


def _unpack_bits(bits, d: int) -> np.ndarray:
    """Boolean matrix whose row r holds the low d bits of the int bits[r], bit i in column i."""
    rows = np.frombuffer(b"".join(b.to_bytes((d + 7) // 8, "little") for b in bits), dtype=np.uint8)
    return np.unpackbits(rows.reshape(len(bits), -1), axis=1, count=d, bitorder="little").view(bool)


# ---------------------------------------------------------------------------
# CSV matrix files: one row per line, comma-separated, LF line endings. An
# adjacency file has row i = outgoing weights of node i; a dataset file has
# one row per sample and may start with a header row of variable names.
# ---------------------------------------------------------------------------

def read_matrix_csv(path, has_header: bool = False) -> np.ndarray:
    """Read a numeric CSV file as a 2-D float array, skipping its header row if it has one.

    Blank lines are skipped. An empty, ragged or non-numeric file is a DataError.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][has_header:]
    if not rows:
        raise DataError(f"empty CSV file: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"ragged rows in CSV file: {path}")
    try:
        return np.array(rows, dtype=float)
    except ValueError as exc:
        raise DataError(f"non-numeric cell in CSV file {path}: {exc}") from None


def write_matrix_csv(M: np.ndarray, path) -> None:
    """Write M row by row with round-trip exact %.17g values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([f"{v:.17g}" for v in row] for row in M)


def save_adjacency_csv(W: np.ndarray, path) -> None:
    write_matrix_csv(check_weights(W), path)


def load_adjacency_csv(path) -> np.ndarray:
    return check_weights(read_matrix_csv(path))
