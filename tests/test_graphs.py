import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colide.errors import DataError
from colide.graphs import (
    Cpdag,
    GraphModelSpec,
    assign_edge_weights,
    check_weights,
    cpdag_of,
    is_dag,
    load_adjacency_csv,
    sample_er_dag,
    sample_sf_dag,
    save_adjacency_csv,
    topological_order,
)
from colide.rng import stream
from colide.solver import threshold

from helpers import (
    all_dags,
    consensus_cpdag,
    cpdag_by_columns,
    equivalence_class_cpdag,
    equivalence_classes,
    random_dag,
    topological_order_by_columns,
    wide_dags,
    with_cycle,
)


@st.composite
def small_dags(draw):
    """A DAG support on 2 <= d <= 7 nodes with at most 12 edges.

    At most 12 edges keeps the brute-force oracle's 2^edges orientation scan small.
    """
    d = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(d), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    rank = draw(st.permutations(range(d)))
    return _support(d, [(a, b) if rank[a] < rank[b] else (b, a) for a, b in edges])


def _support(d, edges):
    A = np.zeros((d, d), dtype=bool)
    for a, b in edges:
        A[a, b] = True
    return A


def chain(d):
    W = np.zeros((d, d))
    for i in range(d - 1):
        W[i, i + 1] = 1.0
    return W


class TestIsDag:
    def test_triangular_is_dag(self):
        W = np.triu(np.ones((5, 5)), k=1)
        assert is_dag(W)

    def test_two_cycle_is_not(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 0.5
        assert not is_dag(W)
        # a self-loop is a cycle too, not check_weights' diagonal fault
        assert not is_dag(np.diag([0.0, 0.5])) and topological_order(np.diag([0.0, 0.5])) is None

    @pytest.mark.parametrize("W", [np.zeros((3, 2)), np.zeros(3), np.ones((2, 3)), np.zeros((0, 0)),
                                   np.zeros((1, 2, 2), dtype=bool)], ids=lambda W: str(W.shape))
    def test_matrix_that_is_not_square_is_a_data_error(self, W):
        for f in (is_dag, topological_order):
            with pytest.raises(DataError, match=r"expected square matrix, got shape"):
                f(W)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_a_data_error(self, bad):
        # check_weights' fault: a NaN weight is no silent non-edge, and an infinite one no edge
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = bad
        for W_bad in (W, np.triu(W)):
            for f in (is_dag, topological_order, check_weights):
                with pytest.raises(DataError, match="^weight matrix has non-finite entries$"):
                    f(W_bad)

    def test_tolerance_thresholds_support(self):
        W = np.zeros((3, 3))
        W[0, 1] = 1.0
        W[1, 0] = 1e-9  # cycle only below the tolerance
        assert not is_dag(W)
        assert is_dag(threshold(W, 1e-6))

    def test_topological_order_respects_edges(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = GraphModelSpec(model="ER", d=12, k=3)
            B = sample_er_dag(spec, rng)
            order = topological_order(B)
            pos = {v: idx for idx, v in enumerate(order)}
            for i, j in zip(*np.nonzero(B)):
                assert pos[i] < pos[j]

    def test_boolean_support_gives_the_order_of_its_weights(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            W = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.2)
            np.fill_diagonal(W, 0.0)
            assert topological_order(W != 0) == topological_order(W)

    @settings(max_examples=80, deadline=None)
    @given(wide_dags())
    def test_order_matches_the_kahn_by_columns_property(self, A):
        order = topological_order(A)
        assert order == topological_order_by_columns(A)
        assert topological_order(np.where(A, -0.5, 0.0)) == order

    @settings(max_examples=80, deadline=None)
    @given(wide_dags().filter(lambda A: len(A) > 1))
    def test_cycle_has_no_order_property(self, A):
        A = with_cycle(A)
        assert topological_order(A) is None and not is_dag(A)
        with pytest.raises(DataError, match="not a DAG"):
            cpdag_of(A.astype(float))


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            GraphModelSpec(model="BA", d=10, k=2)

    def test_sampler_of_the_other_model_rejected(self):
        for sampler, model in ((sample_er_dag, "SF"), (sample_sf_dag, "ER")):
            with pytest.raises(ValueError, match="spec.model must be"):
                sampler(GraphModelSpec(model=model, d=10, k=2), stream(0, 0, "graph"))

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            GraphModelSpec(model="ER", d=10, k=0.5)
        with pytest.raises(ValueError):
            GraphModelSpec(model="ER", d=10, k=10)


def er_dag_by_loop(spec, rng):
    """Reference for sample_er_dag: the same draws, each kept pair oriented in a Python loop."""
    d = spec.d
    iu = np.triu_indices(d, k=1)
    present = rng.random(len(iu[0])) < spec.k / (d - 1)
    pos = np.empty(d, dtype=int)
    pos[rng.permutation(d)] = np.arange(d)
    B = np.zeros((d, d))
    for i, j, keep in zip(iu[0], iu[1], present):
        if keep:
            B[(i, j) if pos[i] < pos[j] else (j, i)] = 1.0
    return B


class TestErSampling:
    @pytest.mark.parametrize("d, k", [(2, 1), (5, 2), (20, 4), (50, 1)])
    def test_matches_the_pairwise_loop(self, d, k):
        spec = GraphModelSpec(model="ER", d=d, k=k)
        for seed in range(5):
            assert np.array_equal(sample_er_dag(spec, stream(3, seed, "graph")),
                                  er_dag_by_loop(spec, stream(3, seed, "graph")))

    def test_always_acyclic(self):
        spec = GraphModelSpec(model="ER", d=30, k=4)
        for i in range(25):
            B = sample_er_dag(spec, stream(0, i, "graph"))
            assert is_dag(B)
            assert set(np.unique(B)) <= {0.0, 1.0}

    def test_expected_edge_count(self):
        # mean edge count is d*k/2; check the empirical mean within 4 standard
        # errors of the binomial draw
        d, k, reps = 40, 4, 200
        spec = GraphModelSpec(model="ER", d=d, k=k)
        counts = [sample_er_dag(spec, stream(1, i, "graph")).sum() for i in range(reps)]
        p = k / (d - 1)
        n_pairs = d * (d - 1) / 2
        se = np.sqrt(n_pairs * p * (1 - p) / reps)
        assert abs(np.mean(counts) - d * k / 2) < 4 * se

    def test_d2_k1_always_one_edge(self):
        # p = k/(d-1) = 1, so exactly one edge, either orientation
        spec = GraphModelSpec(model="ER", d=2, k=1)
        seen = set()
        for i in range(40):
            B = sample_er_dag(spec, stream(2, i, "graph"))
            assert B.sum() == 1.0
            seen.add((B[0, 1], B[1, 0]))
        assert len(seen) == 2  # both orientations occur


class TestSfSampling:
    def test_edge_count_exact(self):
        for d, k in [(10, 2), (25, 4), (8, 1)]:
            spec = GraphModelSpec(model="SF", d=d, k=k)
            m = int(np.clip(round(k / 2), 1, d - 1))
            B = sample_sf_dag(spec, stream(0, d, "graph"))
            assert B.sum() == m * (d - m)
            assert is_dag(B)

    def test_hubs_emerge(self):
        # preferential attachment should concentrate degree far beyond the
        # ER-typical maximum
        spec = GraphModelSpec(model="SF", d=120, k=4)
        maxdeg = []
        for i in range(20):
            B = sample_sf_dag(spec, stream(0, i, "graph"))
            deg = B.sum(axis=0) + B.sum(axis=1)
            maxdeg.append(deg.max())
        assert np.mean(maxdeg) > 3 * spec.k


class TestEdgeWeights:
    def test_support_preserved_and_ranges_respected(self):
        rng = np.random.default_rng(0)
        B = sample_er_dag(GraphModelSpec(model="ER", d=15, k=3), rng)
        ranges = ((0.5, 2.0), (-2.0, -0.5))
        W = assign_edge_weights(B, ranges, rng)
        assert np.array_equal(W != 0, B != 0)
        vals = W[W != 0]
        assert np.all((np.abs(vals) >= 0.5) & (np.abs(vals) <= 2.0))

    def test_degenerate_interval(self):
        B = chain(4)
        W = assign_edge_weights(B, [(1.0, 1.0)], np.random.default_rng(0))
        assert np.array_equal(W, B)

    def test_degenerate_interval_beside_a_long_one_is_never_drawn(self):
        B = np.triu(np.ones((30, 30)), k=1)  # 435 edges
        vals = assign_edge_weights(B, [(1.0, 1.0), (0.5, 2.0)], np.random.default_rng(0))[B != 0]
        assert not (vals == 1.0).any() and (vals >= 0.5).all() and (vals <= 2.0).all()

    def test_all_degenerate_intervals_are_equally_likely(self):
        B = np.triu(np.ones((30, 30)), k=1)
        vals = assign_edge_weights(B, [(1.0, 1.0), (-1.0, -1.0)], np.random.default_rng(0))[B != 0]
        assert set(vals.tolist()) == {1.0, -1.0}
        assert abs((vals == 1.0).mean() - 0.5) < 0.1

    @pytest.mark.parametrize("ranges", [[(np.nan, 1.0)], [(0.5, np.inf)], [(-np.inf, -0.5)], [(2.0, 1.0)], []])
    def test_bad_ranges_rejected(self, ranges):
        with pytest.raises(ValueError):
            assign_edge_weights(chain(3), ranges, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GraphModelSpec(model="ER", d=5, k=2, weight_ranges=tuple(ranges))

    def test_both_signs_hit(self):
        rng = np.random.default_rng(1)
        B = np.triu(np.ones((20, 20)), k=1)
        W = assign_edge_weights(B, ((0.5, 2.0), (-2.0, -0.5)), rng)
        vals = W[W != 0]
        assert (vals > 0).any() and (vals < 0).any()

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            assign_edge_weights(chain(3), [], np.random.default_rng(0))


class TestCpdag:
    def test_chain_is_fully_reversible(self):
        c = cpdag_of(chain(3))
        assert not c.directed.any()
        assert c.undirected[0, 1] and c.undirected[1, 2]
        assert np.array_equal(c.undirected, c.undirected.T)

    def test_collider_stays_directed(self):
        W = np.zeros((3, 3))
        W[0, 2] = W[1, 2] = 1.0
        c = cpdag_of(W)
        assert c.directed[0, 2] and c.directed[1, 2]
        assert not c.undirected.any()

    def test_empty_graph(self):
        c = cpdag_of(np.zeros((4, 4)))
        assert not c.directed.any() and not c.undirected.any()

    def test_meek_r1_propagates(self):
        # 0 -> 2 <- 1 plus 2 - 3: R1 orients 2 -> 3
        W = np.zeros((4, 4))
        W[0, 2] = W[1, 2] = W[2, 3] = 1.0
        c = cpdag_of(W)
        assert c.directed[2, 3]

    def test_cyclic_input_rejected(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(ValueError):
            cpdag_of(W)

    def test_matches_consensus_oracle_d3(self):
        self._check_all(3)

    def test_matches_consensus_oracle_d4(self):
        self._check_all(4)

    @staticmethod
    def _check_all(d):
        classes = equivalence_classes(all_dags(d))
        for members in classes:
            D, U = consensus_cpdag(members)
            expect = Cpdag(directed=D, undirected=U)
            for A in members:
                assert cpdag_of(A.astype(float)) == expect

    def test_fully_compelled_edges_keep_their_direction(self):
        # every edge is compelled; an unsound rule used to turn 5 -> 2 into 2 -> 5
        A = np.zeros((6, 6), dtype=bool)
        for i, j in [(0, 3), (1, 2), (1, 3), (1, 5), (3, 2), (3, 5), (4, 5), (5, 2)]:
            A[i, j] = True
        D, U = equivalence_class_cpdag(A)
        assert np.array_equal(D, A) and not U.any()
        assert cpdag_of(A.astype(float)) == Cpdag(directed=D, undirected=U)

    @pytest.mark.parametrize("d", [6, 7])
    def test_matches_equivalence_class_on_random_dags(self, d):
        rng = np.random.default_rng(d)
        for _ in range(40):
            A = random_dag(d, rng, p=0.4)
            D, U = equivalence_class_cpdag(A)
            assert cpdag_of(A.astype(float)) == Cpdag(directed=D, undirected=U)

    # One example per branch of the compelled-edge labelling in graphs._Dag.cpdag:
    # 0 -> 2 <- 1, 2 -> 3: the compelled 0 -> 2 has 0 outside pa(3), so 2 -> 3 is compelled
    @example(_support(4, [(0, 2), (1, 2), (2, 3)]))
    # 0 -> 1 -> 2 <- 3: a parent of 2 outside the parents of 2's highest parent compels both
    @example(_support(4, [(0, 1), (1, 2), (3, 2)]))
    # the complete DAG on 4 nodes: every edge reversible
    @example(_support(4, [(a, b) for a, b in itertools.combinations(range(4), 2)]))
    # 3 inherits the compelled 0 -> 2 <- 1 as 0 -> 3 <- 1 and keeps 2 - 3 reversible
    @example(_support(4, [(0, 2), (1, 2), (2, 3), (0, 3), (1, 3)]))
    @settings(max_examples=150, deadline=None)
    @given(small_dags())
    def test_matches_equivalence_class_property(self, A):
        D, U = equivalence_class_cpdag(A)
        assert cpdag_of(A.astype(float)) == Cpdag(directed=D, undirected=U)

    @settings(max_examples=80, deadline=None)
    @given(wide_dags())
    def test_matches_the_labelling_by_columns_property(self, A):
        D, U = cpdag_by_columns(A)
        assert cpdag_of(A.astype(float)) == Cpdag(directed=D, undirected=U)

    def test_equivalence_class_counts(self):
        # known counts: 25 DAGs / 11 classes at d=3, 543 / 185 at d=4
        assert len(all_dags(3)) == 25
        assert len(equivalence_classes(all_dags(3))) == 11
        assert len(all_dags(4)) == 543
        assert len(equivalence_classes(all_dags(4))) == 185


class TestAdjacencyCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        B = sample_er_dag(GraphModelSpec(model="ER", d=9, k=2), rng)
        W = assign_edge_weights(B, ((0.5, 2.0), (-2.0, -0.5)), rng)
        path = tmp_path / "w.csv"
        save_adjacency_csv(W, path)
        assert np.array_equal(load_adjacency_csv(path), W)
        assert b"\r" not in path.read_bytes()

    def test_nonzero_diagonal_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.eye(3), delimiter=",")
        with pytest.raises(ValueError):
            load_adjacency_csv(path)

    @pytest.mark.parametrize("reason", ["empty", "ragged", "non-numeric"])
    def test_malformed_file_is_data_error(self, tmp_path, reason):
        # the same reader and messages as dataset files
        path = tmp_path / "bad.csv"
        path.write_text({"empty": "", "ragged": "0,1\n0\n", "non-numeric": "0,1\nx,0\n"}[reason])
        with pytest.raises(DataError, match=reason):
            load_adjacency_csv(path)
