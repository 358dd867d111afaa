"""Shared brute-force oracles for the test suite.

Everything here except method_core and noise_floor is deliberately
independent of the library implementation: finite-difference gradients, DAG enumeration,
Markov-equivalence grouping, equivalence classes by orientation enumeration,
path-enumeration d-separation, the adjustment criterion checked path by
path, d-separation on the moral ancestral graph and the adjustment criterion
on the proper back-door graph (sid_by_pairs: SID without the library's
Bayes-ball walk, for graphs too large for path enumeration), Warshall's
transitive closure, and Kahn's algorithm and the
compelled-edge labelling written with one numpy call per node on boolean
matrices (the library runs both on adjacency lists and int bitsets), with
SHD-C read off that labelling as a per-pair status matrix (shd_c_by_status;
the library counts it with popcounts on bitsets).
method_core evaluates the library's method table the way the solver does,
and noise_floor takes the solver's noise floor from it, so the tests check
the code the solver runs. wide_dags is the hypothesis strategy for DAGs
whose bitsets span several bytes and machine words, and wide_dag_pairs for
pairs of them on one node count.
BAD_FIT_LINES are config lines whose fit settings are out of range, and
NON_FINITE_LINES config lines with a non-finite graph, noise or schedule value.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from colide.scores import METHOD_CORES, residual_diag
from colide.sem import sample_cov

BAD_FIT_LINES = ("fit.lr = -0.01", "fit.lambda = -1", "fit.threshold = -0.5", "fit.lr = nan",
                 "fit.lr = inf", "fit.lambda = inf")
NON_FINITE_LINES = ("graph.weight_ranges = nan:1", "graph.weight_ranges = 0.5:inf",
                    "noise.profile = nv\nnoise.variance_range = 1:inf", "noise.variance = nan",
                    "noise.variance = inf", "fit.schedule = 1:inf:50", "fit.schedule = inf:1:50, 1:1:50")


def method_core(method, part, W, ds, arg=None, lam=0.0):
    """METHOD_CORES[method] at W on ds, from the residual Gram diagonal the solver builds.

    part "score" gives the smooth score plus lam * ||W||_1 and "grad" the
    smooth-part gradient -cov (I - W) / scale, both at scale arg (None for a
    scale of 1); "scale" gives the closed-form scale with floor arg. A scalar
    W or arg fills the solver's matrix or row, and colide_ev's one scale
    comes back as a scalar. The cores run on a stack of one, as in fit.
    """
    score, scale = METHOD_CORES[method]
    cov = sample_cov(ds)[None]
    W = np.broadcast_to(W, (ds.d, ds.d))[None]
    d = W.shape[-1]
    row = np.broadcast_to(1.0 if arg is None else np.asarray(arg, dtype=float), (1, d))
    I_W = np.eye(d) - W
    P = cov @ I_W
    if part == "grad":
        return (-P / row[:, None, :])[0]
    diag = residual_diag(I_W, P)
    if part == "scale":
        out = scale(diag, row)[0]
        return out[0] if len(out) == 1 else out
    if part == "score":
        return score(diag, row)[0] + lam * np.abs(W).sum()
    raise ValueError(f"unknown part {part!r}")


def noise_floor(method, ds):
    """The floor the solver keeps method's scale above on ds: 1e-2 times its closed-form scale at W = 0.

    A float for colide_ev, a (d,) array for colide_nv and None for
    ls_baseline, which has no scale.
    """
    return None if METHOD_CORES[method][1] is None else 1e-2 * method_core(method, "scale", 0, ds, 0.0)


def fd_grad(f, W, step=1e-6):
    """Central finite-difference gradient of a scalar function of W."""
    G = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += step
            Wm[i, j] -= step
            G[i, j] = (f(Wp) - f(Wm)) / (2 * step)
    return G


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def all_dags(d):
    """Enumerate every DAG on d labeled nodes as a boolean adjacency matrix."""
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    out = []
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        A = np.zeros((d, d), dtype=bool)
        for (i, j), b in zip(pairs, bits):
            if b:
                A[i, j] = True
        if _acyclic(A):
            out.append(A)
    return out


def _acyclic(A):
    d = A.shape[0]
    indeg = A.sum(axis=0).astype(int)
    ready = [i for i in range(d) if indeg[i] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in np.flatnonzero(A[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(int(v))
    return seen == d


def vstructures(A):
    """Frozen set of v-structures (i, j, k) with i -> j <- k, i < k non-adjacent."""
    d = A.shape[0]
    out = set()
    for j in range(d):
        parents = np.flatnonzero(A[:, j])
        for i, k in itertools.combinations(parents, 2):
            if not (A[i, k] or A[k, i]):
                out.add((min(i, k), j, max(i, k)))
    return frozenset(out)


def skeleton_key(A):
    return tuple(map(tuple, (A | A.T).astype(int)))


def equivalence_classes(dags):
    """Group DAGs by (skeleton, v-structures), the Markov equivalence invariant."""
    classes = {}
    for A in dags:
        classes.setdefault((skeleton_key(A), vstructures(A)), []).append(A)
    return list(classes.values())


def consensus_cpdag(members):
    """CPDAG of a class by consensus: edges directed iff every member agrees."""
    d = members[0].shape[0]
    directed = np.zeros((d, d), dtype=bool)
    undirected = np.zeros((d, d), dtype=bool)
    skel = members[0] | members[0].T
    for i in range(d):
        for j in range(i + 1, d):
            if not skel[i, j]:
                continue
            fwd = any(A[i, j] for A in members)
            bwd = any(A[j, i] for A in members)
            if fwd and bwd:
                undirected[i, j] = undirected[j, i] = True
            elif fwd:
                directed[i, j] = True
            else:
                directed[j, i] = True
    return directed, undirected


def equivalence_class_cpdag(A):
    """CPDAG of the DAG A by brute force, for graphs too large to enumerate all DAGs.

    Tries both directions of every skeleton edge, keeps the acyclic
    orientations with A's v-structures (A's Markov equivalence class), and
    returns their consensus.
    """
    d = A.shape[0]
    edges = [(i, j) for i in range(d) for j in range(i + 1, d) if A[i, j] or A[j, i]]
    target = vstructures(A)
    members = []
    for flips in itertools.product([False, True], repeat=len(edges)):
        B = np.zeros((d, d), dtype=bool)
        for (i, j), flip in zip(edges, flips):
            B[(j, i) if flip else (i, j)] = True
        if _acyclic(B) and vstructures(B) == target:
            members.append(B)
    return consensus_cpdag(members)

# ---------------------------------------------------------------------------
# Path-enumeration d-separation and the adjustment criterion.
# ---------------------------------------------------------------------------

def simple_paths(A, x, y):
    """All simple paths x..y in the skeleton, as node tuples."""
    skel = A | A.T
    paths = []

    def walk(node, seen, path):
        if node == y:
            paths.append(tuple(path))
            return
        for nxt in np.flatnonzero(skel[node]):
            if nxt not in seen:
                walk(int(nxt), seen | {int(nxt)}, path + [int(nxt)])

    walk(x, {x}, [x])
    return paths


def descendants_of(A, node):
    """Proper descendants of node (directed reachability), excluding itself."""
    out = set()
    stack = list(np.flatnonzero(A[node]))
    while stack:
        v = int(stack.pop())
        if v not in out:
            out.add(v)
            stack.extend(np.flatnonzero(A[v]))
    return out


def path_blocked(A, path, Z):
    """Classical blocking rule applied to one skeleton path."""
    Z = set(Z)
    for idx in range(1, len(path) - 1):
        prev, v, nxt = path[idx - 1], path[idx], path[idx + 1]
        collider = A[prev, v] and A[nxt, v]
        if collider:
            opened = v in Z or (descendants_of(A, v) & Z)
            if not opened:
                return True
        elif v in Z:
            return True
    return False


def d_separated_bf(A, x, y, Z):
    return all(path_blocked(A, p, Z) for p in simple_paths(A, x, y))


def is_directed_path(A, path):
    return all(A[a, b] for a, b in zip(path, path[1:]))


def valid_adjustment_bf(A, i, j, Z):
    """Adjustment criterion, checked by exhaustive path enumeration."""
    Z = set(Z)
    if i in Z or j in Z:
        return False
    causal_nodes = set()
    for p in simple_paths(A, i, j):
        if is_directed_path(A, p):
            causal_nodes.update(p[1:])
    forbidden = set(causal_nodes)
    for w in causal_nodes:
        forbidden |= descendants_of(A, w)
    if Z & forbidden:
        return False
    for p in simple_paths(A, i, j):
        if not is_directed_path(A, p) and not path_blocked(A, p, Z):
            return False
    return True


def sid_bf(est, true):
    """Disrupted-pair count via the path-enumeration adjustment oracle."""
    d = est.shape[0]
    count = 0
    for i in range(d):
        pa = set(np.flatnonzero(est[:, i]).tolist())
        for j in range(d):
            if i == j:
                continue
            est_claims_effect = any(is_directed_path(est, p)
                                    for p in simple_paths(est, i, j))
            true_has_effect = any(is_directed_path(true, p)
                                  for p in simple_paths(true, i, j))
            if est_claims_effect:
                if not valid_adjustment_bf(true, i, j, pa):
                    count += 1
            elif true_has_effect:
                count += 1
    return count


def d_separated_moral(A, x, y, Z):
    """d-separation by the moral ancestral graph (Lauritzen, Dawid, Larsen & Leimer, Networks 1990).

    x and y are d-separated given Z iff Z separates them in the moral graph of
    the subgraph on the ancestors of {x, y} | Z: keep those nodes, join the
    parents of each, drop directions, and search x's component outside Z.
    """
    Z = sorted(set(Z))
    keep = transitive_closure(A)[:, [x, y, *Z]].any(axis=1)
    keep[[x, y, *Z]] = True
    G = A & keep[:, None] & keep[None, :]
    M = G | G.T
    for v in range(len(A)):
        parents = np.flatnonzero(G[:, v])
        M[np.ix_(parents, parents)] = True
    seen, stack = {x, *Z}, [x]
    while stack:
        for w in np.flatnonzero(M[stack.pop()]).tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return y not in seen


def valid_adjustment_pbd(A, i, j, Z):
    """Adjustment criterion (Shpitser, VanderWeele & Robins, UAI 2010) through the proper back-door graph.

    The causal nodes are the nodes after i on directed paths i -> ... -> j.
    Z is valid iff it holds neither i nor j, avoids the causal nodes and their
    descendants, and d-separates i and j once i's edges into causal nodes are
    removed (d_separated_moral).
    """
    Z = set(Z)
    if i in Z or j in Z:
        return False
    R = transitive_closure(A)
    causal = R[i] & (R[:, j] | (np.arange(len(A)) == j))
    forbidden = causal | R[causal].any(axis=0)
    if forbidden[sorted(Z)].any():
        return False
    backdoor = A.copy()
    backdoor[i, causal] = False
    return d_separated_moral(backdoor, i, j, Z)


def sid_by_pairs(est, true):
    """SID summed pair by pair through valid_adjustment_pbd.

    A pair (i, j) that est connects by a directed path is disrupted unless
    est's parents of i adjust for it in true; any other pair is disrupted iff
    true has a directed path i -> ... -> j. Polynomial per pair, so it reaches
    graphs far past sid_bf's path enumeration.
    """
    d = est.shape[0]
    count = 0
    for i in range(d):
        est_desc, true_desc = descendants_of(est, i), descendants_of(true, i)
        for j in range(d):
            if j in est_desc:
                count += not valid_adjustment_pbd(true, i, j, set(np.flatnonzero(est[:, i]).tolist()))
            else:
                count += j in true_desc
    return count


def shd_bf(est, true):
    """Pairwise edit count: reversal is one operation."""
    d = est.shape[0]
    count = 0
    for i in range(d):
        for j in range(i + 1, d):
            a = (bool(est[i, j]), bool(est[j, i]))
            b = (bool(true[i, j]), bool(true[j, i]))
            if a != b:
                count += 1
    return count


def random_dag(d, rng, p=0.4):
    """Random DAG support through a random permutation of a triangular mask."""
    perm = rng.permutation(d)
    A = np.zeros((d, d), dtype=bool)
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < p:
                A[perm[i], perm[j]] = True
    return A


# bitsets of one byte, byte boundaries, 64-bit word boundaries and three words
WIDE_DAG_SIZES = (1, 7, 8, 9, 63, 64, 65, 130)


@st.composite
def wide_dags(draw):
    """A random DAG support on d in WIDE_DAG_SIZES nodes, sparse to dense."""
    d = draw(st.sampled_from(WIDE_DAG_SIZES))
    p = draw(st.sampled_from((0.02, 0.1, 0.5)))
    return random_dag(d, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), p)


@st.composite
def wide_dag_pairs(draw):
    """(est, true) DAG supports on one d in WIDE_DAG_SIZES, true drawn by wide_dags.

    est is a second wide DAG, or true's skeleton with a share of node pairs
    toggled, oriented along a topological order of true (its edges kept
    alike) or along a random order (kept edges often reversed).
    """
    true = draw(wide_dags())
    d = len(true)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    orient = draw(st.sampled_from(("own", "true", "random")))
    if orient == "own":
        return random_dag(d, rng, draw(st.sampled_from((0.02, 0.1, 0.5)))), true
    toggle = np.triu(rng.random((d, d)) < draw(st.sampled_from((0.0, 0.01, 0.1))), 1)
    skeleton = (true | true.T) ^ (toggle | toggle.T)
    rank = np.empty(d, dtype=int)
    rank[topological_order_by_columns(true) if orient == "true" else rng.permutation(d)] = np.arange(d)
    return skeleton & (rank[:, None] < rank[None, :]), true


def with_cycle(A):
    """A copy of the DAG support A (d >= 2) plus i <-> j for a path i -> ... -> j in A, or 0 <-> 1."""
    A = A.copy()
    paths = np.argwhere(transitive_closure(A))
    i, j = paths[len(paths) // 2] if len(paths) else (0, 1)
    A[i, j] = A[j, i] = True
    return A


def transitive_closure(A):
    """R[i, j]: a directed path i -> ... -> j in A (Warshall's algorithm)."""
    R = np.array(A, dtype=bool)
    for k in range(len(R)):
        R |= np.outer(R[:, k], R[k])
    return R


def topological_order_by_columns(A):
    """Kahn's algorithm with one np.flatnonzero per node: LIFO ready list, children ascending.

    The order graphs.topological_order must give; None on a cycle.
    """
    indeg = A.sum(axis=0).astype(int)
    ready = [i for i in range(len(A)) if indeg[i] == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for v in np.flatnonzero(A[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(int(v))
    return order if len(order) == len(A) else None


def cpdag_by_columns(A):
    """(directed, undirected) of Chickering's compelled-edge labelling on boolean columns.

    y's edges are compelled when a compelled w -> x (x: y's last parent in a
    topological order) has w outside pa(y), or when two parents of y lie
    outside pa(x); otherwise y inherits x's compelled parents.
    """
    order = topological_order_by_columns(A)
    rank = np.empty(len(A), dtype=int)
    rank[order] = np.arange(len(A))
    D = np.zeros_like(A)
    for y in order:
        parents = np.flatnonzero(A[:, y])
        if not parents.size:
            continue
        x = parents[np.argmax(rank[parents])]
        if (D[:, x] & ~A[:, y]).any() or np.count_nonzero(A[:, y] & ~A[:, x]) > 1:
            D[:, y] = A[:, y]
        else:
            D[:, y] = D[:, x]
    U = A & ~D
    return D, U | U.T


def pair_status(directed, undirected):
    """Per node pair (i, j) of a CPDAG: 0 none, 1 i->j, 2 j->i, 3 undirected.

    (j, i) holds the code of (i, j) with 1 and 2 swapped, so two graphs'
    codes differ at (i, j) iff at (j, i), and never on the diagonal.
    """
    return directed + 2 * directed.T.astype(int) + 3 * undirected


def shd_c_by_status(est, true):
    """SHD-C as the node pairs whose status differs between the cpdag_by_columns of est and of true."""
    (de, ue), (dt, ut) = cpdag_by_columns(est), cpdag_by_columns(true)
    return int(np.count_nonzero(pair_status(de, ue) != pair_status(dt, ut))) // 2


def random_in_domain(d, s, rng, scale=0.9):
    """Random W with spectral radius of W*W safely below s."""
    W = rng.normal(size=(d, d))
    np.fill_diagonal(W, 0.0)
    rho = max(np.abs(np.linalg.eigvals(W * W)))
    if rho > 0:
        W *= np.sqrt(scale * s / rho)
    return W
