import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colide.errors import CyclicGraphError, DataError
from colide.graphs import GraphModelSpec, is_dag, sample_er_dag, sample_sf_dag, topological_order
from colide.metrics import (
    _Dag,
    d_separated,
    evaluate,
    fdr,
    noise_error,
    posthoc_noise,
    shd,
    shd_c,
    sid,
    tpr,
    valid_adjustment,
)
from colide.sem import Dataset

from helpers import (
    all_dags,
    d_separated_bf,
    descendants_of,
    random_dag,
    shd_bf,
    sid_bf,
    topological_order_by_columns,
    transitive_closure,
    valid_adjustment_bf,
    wide_dags,
    with_cycle,
)


@st.composite
def dag_pairs(draw, max_d=6):
    """(est, true) boolean DAG supports on the same 2 <= d <= max_d nodes.

    est is drawn on its own or orients true's skeleton plus extra pairs
    along its own node order; then est's parents of i are often true
    descendants of i, so SID's forbidden-set test is hit as well as passed.
    """
    d = draw(st.integers(2, max_d))
    pairs = list(itertools.combinations(range(d), 2))
    bits = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))

    def orient(keep, rank):
        A = np.zeros((d, d), dtype=bool)
        for (a, b), k in zip(pairs, keep):
            if k:
                A[(a, b) if rank[a] < rank[b] else (b, a)] = True
        return A

    true = orient(draw(bits), draw(st.permutations(range(d))))
    extra = draw(bits)
    if not draw(st.booleans()):
        extra = [e or true[a, b] or true[b, a] for (a, b), e in zip(pairs, extra)]
    return orient(extra, draw(st.permutations(range(d)))), true


@st.composite
def large_dag_pairs(draw, min_d=8, max_d=40):
    """(est, true) boolean DAG supports on min_d..max_d nodes, past the oracles' reach.

    true has d to 2d edges. est keeps a random share of true's skeleton,
    adds up to d pairs of its own and orients them along true's node order
    or its own, so its parent sets range from true's to true descendants.
    """
    d = draw(st.integers(min_d, max_d))
    pair = st.sampled_from(list(itertools.combinations(range(d), 2)))

    def orient(edges, rank):
        A = np.zeros((d, d), dtype=bool)
        for a, b in edges:
            A[(a, b) if rank[a] < rank[b] else (b, a)] = True
        return A

    rank = draw(st.permutations(range(d)))
    skeleton = draw(st.lists(pair, min_size=d, max_size=2 * d, unique=True))
    est_edges = (skeleton[:draw(st.integers(0, len(skeleton)))]
                 + draw(st.lists(pair, max_size=d, unique=True)))
    est_rank = draw(st.one_of(st.just(rank), st.permutations(range(d))))
    return orient(est_edges, est_rank), orient(skeleton, rank)


def _hub_pair():
    """true: 0 -> 1..10, 9 -> 11, 10 -> 12; est: 0 -> 11, 0 -> 12.

    Targets 11 and 12 of source 0 each cut one of 0's ten children, the
    ninth or the tenth, so their kept-children sets differ only in the
    second byte of a packed key.
    """
    true = np.zeros((13, 13), dtype=bool)
    true[0, 1:11] = true[9, 11] = true[10, 12] = True
    est = np.zeros((13, 13), dtype=bool)
    est[0, [11, 12]] = True
    return est, true


def sid_by_pairs(est, true):
    """SID summed pair by pair through the public valid_adjustment.

    A pair (i, j) that est connects by a directed path is disrupted unless
    est's parents of i adjust for it in true; any other pair is disrupted iff
    true has a directed path i -> ... -> j.
    """
    d = est.shape[0]
    count = 0
    for i in range(d):
        est_desc, true_desc = descendants_of(est, i), descendants_of(true, i)
        for j in range(d):
            if j in est_desc:
                count += not valid_adjustment(true, i, j, set(np.flatnonzero(est[:, i])))
            else:
                count += j in true_desc
    return count


def chain(d):
    W = np.zeros((d, d))
    for i in range(d - 1):
        W[i, i + 1] = 1.0
    return W


# (model, d, k, seed, sid, shd_c); see TestSid.test_golden_large_instances
GOLDEN = [
    ("ER", 200, 2, 0, 97, 34),
    ("ER", 200, 2, 1, 88, 43),
    ("SF", 100, 4, 0, 538, 35),
    ("SF", 100, 4, 1, 438, 35),
]


class TestDagStructure:
    @settings(max_examples=80, deadline=None)
    @given(wide_dags())
    def test_lists_order_and_closure_property(self, A):
        g = _Dag(A)
        assert g.order == topological_order_by_columns(A)
        assert g.parents == [np.flatnonzero(col).tolist() for col in A.T]
        assert g.children == [np.flatnonzero(row).tolist() for row in A]
        assert g.desc.dtype == bool and np.array_equal(g.desc, transitive_closure(A))

    @settings(max_examples=40, deadline=None)
    @given(wide_dags().filter(lambda A: len(A) > 1))
    def test_cycle_is_a_cyclic_graph_error_property(self, A):
        with pytest.raises(CyclicGraphError):
            _Dag(with_cycle(A), "estimate")


class TestShd:
    def test_identical(self):
        W = chain(4)
        assert shd(W, W) == 0

    def test_single_reversal_counts_one(self):
        W = chain(3)
        R = W.copy()
        R[0, 1], R[1, 0] = 0.0, 1.0
        assert shd(R, W) == 1

    def test_addition_and_deletion(self):
        true = chain(3)
        est = np.zeros((3, 3))
        est[0, 2] = 1.0
        assert shd(est, true) == 3  # two deletions + one extra

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = random_dag(6, rng).astype(float)
            B = random_dag(6, rng).astype(float)
            assert shd(A, B) == shd(B, A)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            A = random_dag(5, rng)
            B = random_dag(5, rng)
            assert shd(A.astype(float), B.astype(float)) == shd_bf(A, B)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            shd(chain(3), chain(4))


@pytest.mark.parametrize("metric", [shd, tpr, fdr])
@pytest.mark.parametrize("cyclic", ["est", "true"])
def test_cyclic_graph_is_a_data_error(metric, cyclic):
    loop = chain(3)
    loop[2, 0] = 1.0
    graphs = {"est": chain(3), "true": chain(3), cyclic: loop}
    with pytest.raises(DataError, match="DAG") as exc:
        metric(graphs["est"], graphs["true"])
    assert exc.value.graph == {"est": "estimate", "true": "truth"}[cyclic]


class TestShdC:
    def test_equivalent_dags_have_distance_zero(self):
        # chain orientations are Markov equivalent
        fwd = chain(3)
        rev = fwd.T.copy()
        assert shd_c(fwd, rev) == 0
        assert shd(fwd, rev) == 2  # while plain SHD sees two reversals

    def test_collider_vs_chain(self):
        collider = np.zeros((3, 3))
        collider[0, 2] = collider[1, 2] = 1.0
        other = np.zeros((3, 3))
        other[0, 2] = 1.0
        other[2, 1] = 1.0
        assert shd_c(collider, other) > 0

    def test_zero_iff_same_class(self):
        dags = all_dags(3)
        for A, B in itertools.combinations(dags, 2):
            same_class = (np.array_equal(A | A.T, B | B.T)
                          and _vstructs(A) == _vstructs(B))
            dist = shd_c(A.astype(float), B.astype(float))
            assert (dist == 0) == same_class


def _vstructs(A):
    d = A.shape[0]
    out = set()
    for j in range(d):
        pa = np.flatnonzero(A[:, j])
        for i, k in itertools.combinations(pa, 2):
            if not (A[i, k] or A[k, i]):
                out.add((min(i, k), j, max(i, k)))
    return out


class TestTprFdr:
    def test_perfect(self):
        W = chain(4)
        assert tpr(W, W) == 1.0
        assert fdr(W, W) == 0.0

    def test_reversed_edge_hurts_both(self):
        true = chain(3)
        est = true.T.copy()
        assert tpr(est, true) == 0.0
        assert fdr(est, true) == 1.0

    def test_partial(self):
        true = chain(4)  # edges 01, 12, 23
        est = np.zeros((4, 4))
        est[0, 1] = est[1, 2] = 1.0
        est[0, 3] = 1.0  # one false positive
        assert tpr(est, true) == pytest.approx(2 / 3)
        assert fdr(est, true) == pytest.approx(1 / 3)

    def test_empty_estimate(self):
        assert fdr(np.zeros((3, 3)), chain(3)) == 0.0
        assert tpr(np.zeros((3, 3)), chain(3)) == 0.0

    def test_edgeless_truth_rejected(self):
        with pytest.raises(ValueError):
            tpr(chain(3), np.zeros((3, 3)))


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        A = chain(3) != 0
        assert not d_separated(A, 0, 2, set())
        assert d_separated(A, 0, 2, {1})

    def test_collider_opens_when_conditioned(self):
        A = np.zeros((3, 3), dtype=bool)
        A[0, 2] = A[1, 2] = True
        assert d_separated(A, 0, 1, set())
        assert not d_separated(A, 0, 1, {2})

    def test_descendant_of_collider_opens(self):
        A = np.zeros((4, 4), dtype=bool)
        A[0, 2] = A[1, 2] = A[2, 3] = True
        assert not d_separated(A, 0, 1, {3})

    def test_matches_bruteforce_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            A = random_dag(5, rng, p=0.5)
            nodes = range(5)
            for x, y in itertools.combinations(nodes, 2):
                others = [v for v in nodes if v not in (x, y)]
                for r in range(len(others) + 1):
                    for Z in itertools.combinations(others, r):
                        assert d_separated(A, x, y, set(Z)) == \
                            d_separated_bf(A, x, y, set(Z))


class TestValidAdjustment:
    def test_backdoor_confounder(self):
        # 2 -> 0, 2 -> 1, 0 -> 1: adjusting for the confounder 2 is valid
        A = np.zeros((3, 3), dtype=bool)
        A[2, 0] = A[2, 1] = A[0, 1] = True
        assert valid_adjustment(A, 0, 1, {2})
        assert not valid_adjustment(A, 0, 1, set())

    def test_mediator_forbidden(self):
        A = chain(3) != 0
        assert not valid_adjustment(A, 0, 2, {1})
        assert valid_adjustment(A, 0, 2, set())

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_dag(5, rng, p=0.5)
            for i, j in itertools.permutations(range(5), 2):
                others = [v for v in range(5) if v not in (i, j)]
                for r in range(len(others) + 1):
                    for Z in itertools.combinations(others, r):
                        assert valid_adjustment(A, i, j, set(Z)) == \
                            valid_adjustment_bf(A, i, j, set(Z))


class TestSid:
    def test_self_distance_zero(self):
        for A in all_dags(3):
            assert sid(A.astype(float), A.astype(float)) == 0

    def test_chain_vs_empty(self):
        assert sid(np.zeros((3, 3)), chain(3)) == 3

    def test_reversed_chain(self):
        # est claims effects in the wrong direction; no parent set fixes them
        assert sid(chain(3).T.copy(), chain(3)) > 0

    def test_matches_bruteforce_d3(self):
        dags = [A.astype(float) for A in all_dags(3)]
        for A in dags:
            for B in dags:
                assert sid(A, B) == sid_bf(A != 0, B != 0)

    def test_matches_bruteforce_d4_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            A = random_dag(4, rng, p=0.45)
            B = random_dag(4, rng, p=0.45)
            assert sid(A.astype(float), B.astype(float)) == sid_bf(A, B)

    def test_cyclic_rejected(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(ValueError):
            sid(W, np.zeros((2, 2)))

    @settings(max_examples=300, deadline=None)
    @given(dag_pairs())
    @example((chain(3).T != 0, chain(3) != 0))  # est's parent of 1 is its true child
    def test_matches_bruteforce_property(self, pair):
        est, true = pair
        assert sid(est.astype(float), true.astype(float)) == sid_bf(est, true)

    @settings(max_examples=50, deadline=None)
    @given(large_dag_pairs())
    @example(_hub_pair())  # targets whose kept children differ only past the eighth child
    def test_matches_pairwise_adjustment_property(self, pair):
        # one walk per source group against one adjustment check per pair
        est, true = pair
        assert sid(est.astype(float), true.astype(float)) == sid_by_pairs(est, true)

    @pytest.mark.parametrize("model, d, k, seed, want_sid, want_shd_c", GOLDEN)
    def test_golden_large_instances(self, model, d, k, seed, want_sid, want_shd_c):
        """SID and SHD-C pinned on seeded ER d=200 and SF d=100 perturbations.

        The pinned values were computed by the per-pair implementation of
        commit ffec32d (descendant matrix rebuilt in every adjustment and
        d-separation check, Meek rules scanned over all node pairs):
        `sid(*_perturbed_instance(...))` and `shd_c(...)` for each row.
        """
        est, true = _perturbed_instance(model, d, k, seed)
        assert (sid(est, true), shd_c(est, true)) == (want_sid, want_shd_c)


def _perturbed_instance(model, d, k, seed):
    """(est, true) weight supports: true drawn from the model, est a DAG near it.

    est drops ~10% of true's edges, reverses up to ten where the result stays
    acyclic, and adds five edges that keep it acyclic.
    """
    rng = np.random.default_rng(seed)
    sample = sample_er_dag if model == "ER" else sample_sf_dag
    true = sample(GraphModelSpec(model=model, d=d, k=k), rng) != 0
    edges = np.argwhere(true)
    est = true.copy()
    drop = edges[rng.choice(len(edges), size=len(edges) // 10, replace=False)]
    est[drop[:, 0], drop[:, 1]] = False
    for a, b in edges[rng.choice(len(edges), size=10, replace=False)]:
        if est[a, b]:  # reverse it unless that closes a cycle
            est[a, b], est[b, a] = False, True
            if not is_dag(est):
                est[a, b], est[b, a] = True, False
    order = topological_order(true)
    while int(est.sum()) < int(true.sum()) - len(drop) + 5:
        a, b = sorted(rng.choice(d, size=2, replace=False), key=order.index)
        if not est[b, a]:
            est[a, b] = True
            if not is_dag(est):
                est[a, b] = False
    return est.astype(float), true.astype(float)


class TestNoiseMetrics:
    def test_scalar_relative_error(self):
        assert noise_error(1.1, 1.0) == pytest.approx(0.1)

    def test_vector_relative_error(self):
        est = np.array([1.0, 2.0])
        true = np.array([1.0, 1.0])
        assert noise_error(est, true) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            noise_error(1.0, 0.0)

    def test_posthoc_ev_on_true_graph(self):
        rng = np.random.default_rng(5)
        W = chain(4) * 0.8
        Z = rng.standard_normal((4, 200000)) * 1.5
        X = np.linalg.solve(np.eye(4) - W.T, Z)
        est = posthoc_noise(Dataset(X=X), W, profile="ev")
        assert est == pytest.approx(1.5, rel=0.02)

    def test_posthoc_nv_shape_and_values(self):
        rng = np.random.default_rng(6)
        sds = np.array([0.5, 1.0, 2.0])
        Z = rng.standard_normal((3, 200000)) * sds[:, None]
        est = posthoc_noise(Dataset(X=Z), np.zeros((3, 3)), profile="nv")
        assert est.shape == (3,)
        assert np.allclose(est, sds, rtol=0.02)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            posthoc_noise(Dataset(X=np.ones((2, 2))), np.zeros((2, 2)), "xx")


class TestEvaluate:
    def test_counts_and_fields(self):
        true = chain(4)
        est = true.copy()
        est[0, 3] = 0.9
        rep = evaluate(est, true, est_scale=1.2, true_scale=1.0)
        assert rep.shd == 1
        assert rep.shd_normalized == pytest.approx(0.25)
        assert rep.edge_count_est == 4
        assert rep.edge_count_true == 3
        assert rep.noise_rel_error == pytest.approx(0.2)

    def test_noise_error_optional(self):
        rep = evaluate(chain(3), chain(3))
        assert rep.noise_rel_error is None
