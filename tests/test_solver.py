from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from colide import solver
from colide.bench import ExperimentConfig, generate_instance
from colide.errors import DataError
from colide.graphs import GraphModelSpec, is_dag
from colide.rng import stream
from colide.scores import METHOD_CORES, DomainViolation, grad_ldet, h_ldet, sigma_floor_ev
from colide.sem import Dataset, NoiseSpec, sample_cov, sample_noise, simulate_sem
from colide.solver import (
    EARLY_STOP_RTOL,
    METHODS,
    AdamState,
    FitError,
    StageSchedule,
    adam_step,
    default_schedule,
    domain_guard,
    fit,
    fit_online,
    fit_stack,
    init_online,
    online_update,
    threshold,
)

from helpers import method_core

# reduced iteration caps keep small-instance fits fast; early stopping
# usually kicks in well before them
FAST = StageSchedule(stages=((1.0, 1.0, 6000), (0.1, 0.9, 6000),
                             (0.01, 0.8, 6000), (0.001, 0.7, 12000)))


def small_instance(seed=0, d=8, k=2, n=400, profile="ev"):
    noise = NoiseSpec(family="gaussian", profile=profile)
    cfg = ExperimentConfig(graph=GraphModelSpec(model="ER", d=d, k=k),
                           noise=noise, n=n)
    return generate_instance(cfg, seed)


def fit_recording(ds, **kw):
    """fit(ds, **kw) with the domain guard wrapped; returns (result, W accepted at each iteration)."""
    accepted = []

    def guard(W, update, s):
        out = domain_guard(W, update, s)
        accepted.append(out[0][0])  # fit runs a stack of one
        return out

    with mock.patch.object(solver, "domain_guard", guard):
        res = fit(ds, **kw)
    return res, accepted


def stage_objectives(ds, method, schedule, lam=0.05):
    """Fit, then recompute each iteration's stage objective from its accepted W.

    Returns (result, one array per stage): mu * (score + lam * ||W||_1) + h
    of the method core, at the closed-form scale of that W (1 for ls_baseline).
    """
    res, accepted = fit_recording(ds, method=method, schedule=schedule, lam=lam)
    floor_of = METHOD_CORES[method][0]
    floor = floor_of(ds) if floor_of else None
    stages, done = [], 0
    for (mu, s, _), iters in zip(schedule.stages, res.iters_per_stage):
        objs = []
        for W in accepted[done:done + iters]:
            scale = 1.0 if floor is None else method_core(method, "scale", W, ds, floor)
            objs.append(mu * method_core(method, "score", W, ds, scale, lam=lam) + h_ldet(W, s))
        stages.append(np.array(objs))
        done += iters
    return res, stages


class TestSchedule:
    def test_default_stages(self):
        st = default_schedule().stages
        assert [mu for mu, _, _ in st] == [1.0, 0.1, 0.01, 0.001]
        assert [s for _, s, _ in st] == [1.0, 0.9, 0.8, 0.7]
        assert [t for _, _, t in st] == [20000, 20000, 20000, 70000]

    def test_mu_must_decrease(self):
        with pytest.raises(ValueError):
            StageSchedule(stages=((0.1, 1.0, 10), (0.1, 0.9, 10)))

    def test_positive_s_and_iters(self):
        for stage in ((1.0, 0.0, 10), (0.0, 1.0, 10), (-1.0, 1.0, 10)):
            with pytest.raises(ValueError):
                StageSchedule(stages=(stage,))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        st = AdamState.zero((2, 2), lr=0.01)
        grad = np.array([[0.0, 3.0], [-2.0, 0.0]])
        st, update = adam_step(st, grad)
        # bias correction makes the first step lr * sign(grad) (up to eps)
        assert np.allclose(update, -0.01 * np.sign(grad), atol=1e-6)
        assert st.t == 1

    def test_constant_gradient_limit(self):
        st = AdamState.zero((2, 2), lr=0.5)
        grad = np.zeros((2, 2))
        grad[0, 1] = 0.7
        update = None
        for _ in range(500):
            st, update = adam_step(st, grad)
        assert update[0, 1] == pytest.approx(-0.5, rel=1e-3)

    def test_moments_shape(self):
        st = AdamState.zero((3, 5, 5))
        assert st.m.shape == (3, 5, 5) and st.v.shape == (3, 5, 5)


def guard_one(W, update, s):
    """domain_guard on a stack of one: (W, stalled, h, grad_h) of the slice."""
    out, stalled, h, grad_h = domain_guard(W[None], update[None], s)
    return out[0], stalled.tolist() == [0], h[0], grad_h[0]


class TestDomainGuard:
    def test_safe_step_accepted(self):
        W = np.zeros((2, 2))
        up = np.full((2, 2), 0.1)
        np.fill_diagonal(up, 0.0)
        out, stalled, h, grad_h = guard_one(W, up, s=1.0)
        assert not stalled
        assert np.array_equal(out, W + up)
        # the accepted point's log-det and its gradient come back with it
        assert h == h_ldet(out, 1.0)
        assert np.array_equal(grad_h, grad_ldet(out, 1.0))

    def test_halving_on_violation(self):
        W = np.zeros((2, 2))
        up = np.zeros((2, 2))
        up[0, 1] = up[1, 0] = 1.5  # full step leaves the domain at s=1
        out, stalled, h, _ = guard_one(W, up, s=1.0)
        assert not stalled
        assert 0 < out[0, 1] < 1.5
        assert h == h_ldet(out, 1.0)

    def test_stall_returns_input(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 0.999  # right at the domain edge for s=1
        up = np.zeros((2, 2))
        up[0, 1] = 1e9
        out, stalled, h, grad_h = guard_one(W, up, s=1.0)
        assert stalled
        assert np.array_equal(out, W)
        assert np.isnan(h) and np.isnan(grad_h).all()

    def test_zero_update(self):
        W = np.zeros((3, 3))
        out, stalled, _, _ = guard_one(W, np.zeros((3, 3)), s=0.7)
        assert not stalled and np.array_equal(out, W)

    def test_positive_determinant_outside_the_domain_is_halved(self):
        # two 2-cycles of weight 0.9 stepped to 1.2: W*W has eigenvalues +-1.44
        # twice, so det(I - W*W) > 0 although rho(W*W) = 1.44 > s = 1
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 0.9
        up = 0.3 * (W != 0)
        assert np.linalg.det(np.eye(4) - (W + up) ** 2) > 0
        with pytest.raises(DomainViolation):
            h_ldet(W + up, 1.0)
        out, stalled, _, _ = guard_one(W, up, s=1.0)
        assert stalled or not np.array_equal(out, W + up)
        assert max(abs(np.linalg.eigvals(out * out))) < 1.0

    def test_each_slice_halves_alone(self):
        # accepted at once, halved, stalled: each slice as the guard treats it alone
        edge = np.zeros((3, 3))
        edge[0, 1] = edge[1, 0] = 0.999
        W = np.stack([np.zeros((3, 3)), np.zeros((3, 3)), edge])
        up = np.zeros((3, 3, 3))
        up[0, 0, 1] = 0.1
        up[1, 0, 1] = up[1, 1, 0] = 1.5
        up[2, 0, 1] = 1e9
        out, stalled, h, grad_h = domain_guard(W, up, s=1.0)
        assert stalled.tolist() == [2]
        for b in range(3):
            one = guard_one(W[b], up[b], s=1.0)
            assert np.array_equal(out[b], one[0])
            assert np.array_equal(h[b], one[2], equal_nan=True)
            assert np.array_equal(grad_h[b], one[3], equal_nan=True)


class TestThreshold:
    def test_small_entries_zeroed(self):
        W = np.array([[0.0, 0.29], [-0.31, 0.0]])
        out = threshold(W, 0.3)
        assert out[0, 1] == 0.0 and out[1, 0] == -0.31

    def test_boundary_kept(self):
        W = np.array([[0.0, 0.3], [0.0, 0.0]])
        assert threshold(W, 0.3)[0, 1] == 0.3

    @pytest.mark.parametrize("tau", [-1.0, float("nan")])
    def test_negative_or_nan_tau_rejected(self, tau):
        # a negative threshold keeps every entry, NaN keeps every entry too
        with pytest.raises(ValueError, match="need threshold >= 0"):
            threshold(np.zeros((2, 2)), tau)

    def test_input_unmodified(self):
        W = np.array([[0.0, 0.1], [0.0, 0.0]])
        threshold(W, 0.3)
        assert W[0, 1] == 0.1


class TestFit:
    def test_unknown_method(self):
        ds = Dataset(X=np.random.default_rng(0).standard_normal((3, 20)))
        with pytest.raises(ValueError):
            fit(ds, method="pc")

    @pytest.mark.parametrize("setting", [dict(lr=0.0), dict(lr=-0.01), dict(lam=-1.0), dict(tau=-0.5),
                                         dict(lr=float("nan"))])
    def test_out_of_range_settings(self, setting):
        # a negative threshold keeps every entry, a negative lambda rewards dense W
        ds = Dataset(X=np.random.default_rng(0).standard_normal((3, 20)))
        with pytest.raises(ValueError, match="need lr > 0"):
            fit(ds, **setting)

    def test_chain_recovery_ev(self):
        # five-node chain with strong weights: exact support recovery
        W_true = np.zeros((5, 5))
        for i in range(4):
            W_true[i, i + 1] = 1.5
        Z = sample_noise("gaussian", np.ones(5), 1000, stream(0, 0, "noise"))
        ds = simulate_sem(W_true, Z)
        res = fit(ds, method="colide_ev", schedule=FAST)
        assert np.array_equal(res.W_thresholded != 0, W_true != 0)
        assert is_dag(res.W_thresholded)
        assert res.scale == pytest.approx(1.0, abs=0.15)

    def test_er_recovery_all_methods(self):
        W_true, sigmas, ds = small_instance(seed=1)
        for method in ("colide_ev", "colide_nv", "ls_baseline"):
            res = fit(ds, method=method, schedule=FAST)
            assert is_dag(res.W_thresholded)
            # thresholded support should be close at this easy scale
            diff = np.count_nonzero((res.W_thresholded != 0) != (W_true != 0))
            assert diff <= 2

    def test_ev_sigma_float(self):
        _, _, ds = small_instance(seed=2)
        res = fit(ds, method="colide_ev", schedule=FAST)
        assert type(res.scale) is float
        assert res.sigma is res.scale and res.sigmas is None

    def test_nv_sigma_vector(self):
        W_true, sigmas, ds = small_instance(seed=2, profile="nv")
        res = fit(ds, method="colide_nv", schedule=FAST)
        assert res.sigmas.shape == (8,)
        assert res.scale is res.sigmas and res.sigma is None

    def test_ls_has_no_scale(self):
        _, _, ds = small_instance(seed=3)
        res = fit(ds, method="ls_baseline", schedule=FAST)
        assert res.scale is None and res.sigma is None and res.sigmas is None

    def test_deterministic(self):
        _, _, ds = small_instance(seed=4)
        r1 = fit(ds, method="colide_ev", schedule=FAST)
        r2 = fit(ds, method="colide_ev", schedule=FAST)
        assert np.array_equal(r1.W, r2.W)
        assert r1.scale == r2.scale
        assert r1.iters_per_stage == r2.iters_per_stage

    @pytest.mark.slow
    def test_early_stopping_caps_iterations(self):
        _, _, ds = small_instance(seed=5)
        res = fit(ds, method="colide_ev")
        caps = [t for _, _, t in default_schedule().stages]
        assert any(it < cap for it, cap in zip(res.iters_per_stage, caps))

    def test_trace_monotone_tail(self):
        # the stage objective should mostly decrease within a stage
        _, _, ds = small_instance(seed=6)
        _, stages = stage_objectives(ds, "colide_ev", FAST)
        trace = np.concatenate(stages)
        drops = np.diff(trace) <= 1e-8
        assert drops.mean() > 0.9

    def test_sigma_floor_respected(self):
        _, _, ds = small_instance(seed=7)
        res = fit(ds, method="colide_ev", schedule=FAST)
        assert res.scale >= sigma_floor_ev(ds)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            fit(Dataset(X=np.ones((1, 5))))

    def test_warm_start_outside_domain_is_fit_error(self):
        # stage 0 ends with a W that is outside stage 1's log-det domain at s = 0.2
        _, _, ds = small_instance(seed=0, d=10, k=4, n=500)
        sched = StageSchedule(stages=((1.0, 1.0, 2000), (0.1, 0.2, 200)))
        for method in METHODS:
            with pytest.raises(FitError) as err:
                fit(ds, method=method, schedule=sched)
            assert (err.value.stage, err.value.iteration) == (1, 0)

    @pytest.mark.parametrize("method", METHODS)
    def test_trace_ends_at_stage_objective(self, method):
        # the solver stops a stage at the first iteration whose change of
        # mu * (score + lam * ||W||_1) + h of its method core is below
        # EARLY_STOP_RTOL, else at the cap; stage 0 hits its cap, the others stop early
        _, _, ds = small_instance(seed=12)
        sched = StageSchedule(stages=((1.0, 1.0, 2000), (0.1, 0.9, 6000), (0.01, 0.8, 6000)))
        res, stages = stage_objectives(ds, method, sched)
        expect_iters = []
        for (_, _, cap), obj in zip(sched.stages, stages):
            rel = np.abs(np.diff(obj)) / np.maximum(np.abs(obj[:-1]), 1e-12)
            below = np.flatnonzero(rel < EARLY_STOP_RTOL)
            expect_iters.append(int(below[0]) + 2 if below.size else cap)
        assert res.iters_per_stage == expect_iters
        assert expect_iters[0] == 2000 and all(it < 6000 for it in expect_iters[1:])
        mu, s, _ = sched.stages[-1]
        final = mu * method_core(method, "score", res.W, ds, res.scale, lam=0.05) + h_ldet(res.W, s)
        assert stages[-1][-1] == final

    @settings(max_examples=40, deadline=None)
    @given(hs.sampled_from(METHODS), hs.integers(2, 5), hs.sampled_from([3e-4, 1e-2, 0.3]),
           hs.sampled_from([1.0, 0.7]), hs.sampled_from([0.0, 3.0]), hs.integers(0, 2 ** 32 - 1))
    def test_iterates_stay_in_the_domain_property(self, method, d, lr, s, shared, seed):
        rng = np.random.default_rng(seed)
        # a shared component correlates all nodes and pulls W towards cycles
        ds = Dataset(X=rng.standard_normal((d, 50)) + shared * rng.standard_normal(50))
        _, accepted = fit_recording(ds, method=method,
                                    schedule=StageSchedule(stages=((1.0, s, 40),)), lr=lr)
        for W in accepted:
            assert max(abs(np.linalg.eigvals(W * W))) < s

    @pytest.mark.parametrize("method", METHODS)
    def test_factorisation_budget(self, method, monkeypatch):
        # per iteration one inverse and one slogdet of the guard's accepted
        # candidate, the same pair per stage start for the warm start
        _, _, ds = small_instance(seed=13)
        sched = StageSchedule(stages=((1.0, 1.0, 200), (0.1, 0.9, 200)))
        calls = {"slogdet": 0, "inv": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kw):
                calls[_name] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        res = fit(ds, method=method, schedule=sched)
        iters = sum(res.iters_per_stage)
        assert res.stalls == 0
        stages = len(sched.stages)
        assert calls == {"slogdet": iters + stages, "inv": iters + stages}


def kind_dataset(kind, d, rng, block=4):
    """A d-node dataset whose fits take different paths in one stack.

    "sparse": rows with disjoint supports, so cov is diagonal, the gradient is
    0 and W stays 0 (early stop at iteration 2); "pair": the same with row 1
    following row 0, so W grows one 2-cycle; "dense": every row shares a
    component, so a huge step leaves the domain at every halving (stall);
    "random": independent Gaussian rows; "huge": random rows whose covariance
    overflows, and "zero-row" (random rows but the last, all zero) and "zeros"
    (all zero), which have no usable colide_nv floor (and "zeros" no
    colide_ev one), so the slice is a DataError from the start; "large":
    random rows at 1e80, whose covariance is finite but whose ls_baseline
    gradient (the covariance) overflows ADAM's second moment, a FitError.
    """
    X = np.zeros((d, block * d))
    for i in range(d):
        X[i, block * i:block * (i + 1)] = rng.standard_normal(block)
    if kind == "pair":
        X[1] = X[0] + 0.1 * X[1]
    elif kind == "dense":
        X = rng.standard_normal(X.shape) + 3.0 * rng.standard_normal(X.shape[1])
    elif kind == "random":
        X = rng.standard_normal(X.shape)
    elif kind == "huge":
        X = 1e155 * rng.standard_normal(X.shape)
    elif kind == "zero-row":
        X = rng.standard_normal(X.shape)
        X[-1] = 0.0
    elif kind == "zeros":
        X = np.zeros(X.shape)
    elif kind == "large":
        X = 1e80 * rng.standard_normal(X.shape)
    return Dataset(X=X)


def fit_or_error(ds, **kw):
    try:
        return fit(ds, **kw)
    except (FitError, DataError) as exc:
        return exc


def error_key(exc):
    """What a fit error reports: its type, message and, for a FitError, stage and iteration."""
    return type(exc), str(exc), getattr(exc, "stage", None), getattr(exc, "iteration", None)


KINDS = ("sparse", "pair", "dense", "random", "zero-row", "zeros", "large")
# d = 3, lr = 1e6, s falling to 0.2: "sparse" stops early in both stages, "pair"
# leaves stage 1's domain at its warm start, "dense" stalls, "zeros" has no
# colide_ev floor
MIXED = dict(method="colide_ev", d=3, kinds=list(KINDS), lr=1e6, stages=[(1.0, 40), (0.2, 40)], seed=0)


class TestFitStack:
    @settings(max_examples=60, deadline=None)
    @given(method=hs.sampled_from(METHODS), d=hs.integers(2, 8),
           kinds=hs.lists(hs.sampled_from(KINDS), min_size=1, max_size=5),
           lr=hs.sampled_from([1e-2, 0.3, 1e6]),
           stages=hs.lists(hs.tuples(hs.sampled_from([1.0, 0.7, 0.2]), hs.integers(1, 40)),
                           min_size=1, max_size=3),
           seed=hs.integers(0, 2 ** 32 - 1))
    @example(**MIXED)
    @example(method="colide_nv", d=2, kinds=["sparse", "dense", "random"], lr=1e-2,
             stages=[(1.0, 40), (0.2, 40)], seed=0)
    # every slice has failed before the last stage starts
    @example(method="colide_ev", d=2, kinds=["pair"], lr=1e6, stages=[(1.0, 1), (0.7, 1), (1.0, 1)], seed=0)
    # slice 0 leaves stage 1's domain at its warm start, slice 1 stage 2's
    @example(method="colide_ev", d=2, kinds=["dense", "pair"], lr=1e6, stages=[(1.0, 40), (0.7, 40), (0.2, 40)],
             seed=0)
    # slice 1's covariance overflows: a DataError of its own, without RuntimeWarnings, while the others run on
    @example(method="colide_nv", d=3, kinds=["sparse", "huge", "random"], lr=0.3, stages=[(1.0, 40), (0.7, 40)],
             seed=0)
    # slices 1 and 2 have no usable floor, while the others run on
    @example(method="colide_nv", d=3, kinds=["random", "zero-row", "zeros", "sparse"], lr=0.3,
             stages=[(1.0, 40), (0.7, 40)], seed=0)
    # slice 1's ADAM second moment overflows in stage 0, while the others run on
    @example(method="ls_baseline", d=3, kinds=["random", "large", "sparse"], lr=0.3,
             stages=[(1.0, 40), (0.7, 40)], seed=0)
    def test_each_slice_is_its_own_fit_property(self, method, d, kinds, lr, stages, seed):
        rng = np.random.default_rng(seed)
        datasets = [kind_dataset(kind, d, rng) for kind in kinds]
        kw = dict(method=method, lr=lr, schedule=StageSchedule(
            stages=tuple((10.0 ** -k, s, cap) for k, (s, cap) in enumerate(stages))))
        for got, want in zip(fit_stack(datasets, **kw), [fit_or_error(ds, **kw) for ds in datasets]):
            if isinstance(want, Exception):
                assert error_key(got) == error_key(want)
                continue
            assert np.array_equal(got.W, want.W)
            assert np.array_equal(got.W_thresholded, want.W_thresholded)
            assert np.array_equal(np.asarray(got.scale, dtype=float), np.asarray(want.scale, dtype=float),
                                  equal_nan=True)
            assert got.iters_per_stage == want.iters_per_stage
            assert got.stalls == want.stalls

    # just below the covariance check: the score overflows at the first step, with no
    # RuntimeWarning, also when the first step is the stage cap
    def test_objective_that_overflows_is_its_slices_fit_error(self):
        rng = np.random.default_rng(0)
        datasets = [kind_dataset("random", 3, rng), Dataset(X=1e153 * kind_dataset("dense", 3, rng).X)]
        for cap in (1, 40):
            kw = dict(method="colide_ev", lr=1e-2, schedule=StageSchedule(stages=((1.0, 1.0, cap),)))
            got, diverged = fit_stack(datasets, **kw)
            assert (str(diverged), diverged.stage, diverged.iteration) == (
                "objective diverged (stage 0, iteration 1)", 0, 1)
            assert np.array_equal(got.W, fit(datasets[0], **kw).W)

    def test_divergence_is_reported_over_a_gradient_overflow(self):
        # one sample at 1e154: the covariance (1e308) is finite, but at the first step both the
        # ls_baseline objective and ADAM's second moment of its gradient overflow
        ds = Dataset(X=np.full((3, 1), 1e154))
        for cap in (1, 40):
            err = fit_stack([ds], "ls_baseline", schedule=StageSchedule(stages=((1.0, 1.0, cap),)))[0]
            assert (str(err), err.stage, err.iteration) == ("objective diverged (stage 0, iteration 1)", 0, 1)

    def test_gradient_that_overflows_is_its_slices_fit_error(self):
        # at 1e80 the ls_baseline gradient, the covariance itself, squares past the float range:
        # ADAM's steps are 0 and the stage would stop early on an unchanged W = 0
        rng = np.random.default_rng(0)
        datasets = [kind_dataset(kind, 3, rng) for kind in ("random", "large", "sparse")]
        kw = dict(lr=0.3, schedule=StageSchedule(stages=((1.0, 1.0, 40), (0.1, 0.7, 40))))
        good, overflow, _ = fit_stack(datasets, "ls_baseline", **kw)
        assert (str(overflow), overflow.stage, overflow.iteration) == (
            "gradient overflow (stage 0, iteration 2)", 0, 2)
        assert np.array_equal(good.W, fit(datasets[0], "ls_baseline", **kw).W)
        # a slice still running at the stage cap is checked too
        capped = fit_stack(datasets[1:2], "ls_baseline", schedule=StageSchedule(stages=((1.0, 1.0, 1),)))[0]
        assert (str(capped), capped.stage, capped.iteration) == ("gradient overflow (stage 0, iteration 1)", 0, 1)
        # the colide methods divide the covariance by the squared scale and fit the same data
        for method in ("colide_ev", "colide_nv"):
            assert not np.array_equal(fit(datasets[1], method, **kw).W, np.zeros((3, 3)))

    def test_mixed_example_covers_stalls_faults_and_early_stops(self):
        rng = np.random.default_rng(MIXED["seed"])
        datasets = [kind_dataset(kind, MIXED["d"], rng) for kind in MIXED["kinds"]]
        sched = StageSchedule(stages=((1.0, 1.0, 40), (0.1, 0.2, 40)))
        sparse, pair, dense, _, _, zeros, _ = fit_stack(datasets, MIXED["method"], sched, lr=MIXED["lr"])
        assert sparse.iters_per_stage == [2, 2] and sparse.stalls == 0
        assert isinstance(pair, FitError) and (pair.stage, pair.iteration) == (1, 0)
        assert "warm start" in str(pair)
        assert dense.stalls > 0
        assert isinstance(zeros, DataError) and "no usable noise floor" in str(zeros)

    def test_datasets_must_share_one_size(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            fit_stack([kind_dataset("random", 3, rng), kind_dataset("random", 4, rng)])
        with pytest.raises(ValueError):
            fit_stack([])


class TestOnline:
    def test_single_batch_cov_is_sample_cov(self):
        _, _, ds = small_instance(seed=8, d=6, n=120)
        st = init_online(6, method="colide_ev", floor=sigma_floor_ev(ds))
        st = online_update(st, ds.X)
        assert np.allclose(st.cov_running, sample_cov(ds))
        assert st.adam.t == 1

    def test_batch_mean_identity(self):
        # running covariance over equal batches equals their plain mean
        _, _, ds = small_instance(seed=9, d=6, n=120)
        st = init_online(6, method="colide_ev", floor=sigma_floor_ev(ds))
        covs = []
        for i in range(4):
            batch = ds.X[:, i * 30:(i + 1) * 30]
            covs.append(batch @ batch.T / 30)
            st = online_update(st, batch)
        assert np.allclose(st.cov_running, np.mean(covs, axis=0))

    def test_scale_floor(self):
        st = init_online(3, method="colide_ev", floor=5.0)
        st = online_update(st, np.zeros((3, 10)) + 1e-9)
        assert st.scale == 5.0

    def test_nv_statistic_per_node(self):
        _, _, ds = small_instance(seed=10, d=6, n=120, profile="nv")
        from colide.scores import sigma_floor_nv
        st = init_online(6, method="colide_nv", floor=sigma_floor_nv(ds))
        st = online_update(st, ds.X)
        # with W = 0 the statistic is the per-node mean square
        expect = (ds.X ** 2).sum(axis=1) / ds.n
        assert np.allclose(st.scale, np.sqrt(expect))

    def test_empty_batch_rejected(self):
        st = init_online(3, method="colide_ev", floor=0.1)
        with pytest.raises(ValueError):
            online_update(st, np.zeros((3, 0)))

    @pytest.mark.parametrize("batch, error", [
        (np.full((3, 5), np.nan), DataError),
        (np.full((3, 5), 1e200), DataError),  # finite values whose covariance overflows
        (np.ones((4, 5)), ValueError),  # a row too many
    ], ids=["nan", "overflow", "rows"])
    def test_unusable_batch_rejected(self, batch, error):
        st = online_update(init_online(3, method="colide_ev", floor=0.1), np.ones((3, 5)))
        with pytest.raises(error, match="batch"):
            online_update(st, batch)

    def test_first_update_checks_the_domain(self, monkeypatch):
        st = init_online(2, method="colide_ev", floor=0.1)
        st.W = np.array([[0.0, 1.0], [1.0, 0.0]])  # det(0.7 I - W*W) < 0
        with pytest.raises(DomainViolation):
            online_update(st, np.ones((2, 5)), s=0.7)
        # later updates check st.W too
        st = online_update(init_online(2, method="colide_ev", floor=0.1), np.ones((2, 5)))
        with pytest.raises(DomainViolation):
            online_update(replace(st, W=np.array([[0.0, 1.0], [1.0, 0.0]])), np.ones((2, 5)))
        # inside the domain each update inverts st.W (domain check and gradient),
        # and the guard inverts and slogdets the accepted candidate
        _, _, ds = small_instance(seed=8, d=6, n=120)
        st = init_online(6, method="colide_ev", floor=sigma_floor_ev(ds))
        calls = {"slogdet": 0, "inv": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kw):
                calls[_name] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        for i in range(3):
            st = online_update(st, ds.X[:, i * 40:(i + 1) * 40])
        assert st.stalls == 0
        assert calls == {"slogdet": 3, "inv": 6}

    @settings(max_examples=50, deadline=None)
    @given(hs.sampled_from(["colide_ev", "colide_nv"]), hs.integers(2, 6),
           hs.sampled_from([3e-4, 1e-2, 0.3]), hs.sampled_from([1.0, 0.1, 0.001]),
           hs.sampled_from([1.0, 0.7]),
           hs.lists(hs.tuples(hs.integers(1, 20), hs.sampled_from([1e-9, 1.0, 10.0]),
                              hs.sampled_from([0.0, 3.0])),
                    min_size=1, max_size=25),
           hs.integers(0, 2 ** 32 - 1))
    def test_scale_floor_and_domain_hold_property(self, method, d, lr, mu, s, batches, seed):
        rng = np.random.default_rng(seed)
        floor = rng.uniform(0.01, 1.0, size=None if method == "colide_ev" else d)
        st = init_online(d, method=method, floor=floor, lr=lr)
        for n_b, amplitude, shared in batches:
            # a shared component correlates all nodes and pulls W towards cycles
            noise = rng.standard_normal((d, n_b)) + shared * rng.standard_normal(n_b)
            st = online_update(st, amplitude * noise, mu=mu, s=s)
            assert np.all(st.scale >= st.floor)
            h_ldet(st.W, s)  # raises DomainViolation outside the domain

    def test_ls_unsupported(self):
        with pytest.raises(ValueError):
            init_online(3, method="ls_baseline")

    def test_fit_online_tracks_batch_fit(self):
        _, _, ds = small_instance(seed=11, d=8, n=400)
        res = fit(ds, method="colide_ev", schedule=FAST)
        st, snaps = fit_online(ds, 100, method="colide_ev", schedule=FAST,
                               snapshot_every=50)
        rel = np.linalg.norm(st.W - res.W) / np.linalg.norm(res.W)
        assert rel < 0.35
        assert abs(st.scale - res.scale) / res.scale < 0.1
        assert snaps  # per-epoch history recorded

    def test_fit_online_bad_snapshot_every(self):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        with pytest.raises(ValueError, match="snapshot_every"):
            fit_online(ds, 50, snapshot_every=0)

    @pytest.mark.parametrize("epochs", [[0, 0, 0, 0], [-3, 1, 1, 1], [1, 1, 1]])
    def test_fit_online_bad_epochs_per_stage(self, epochs):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        with pytest.raises(ValueError, match="epochs_per_stage"):
            fit_online(ds, 50, epochs_per_stage=epochs)

    def test_fit_online_bad_batch_size(self):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        with pytest.raises(ValueError):
            fit_online(ds, 0)
        with pytest.raises(ValueError):
            fit_online(ds, 101)

    @pytest.mark.parametrize("method", ["ls_baseline", "no_such_method"])
    def test_fit_online_needs_a_scale_method(self, method):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        with pytest.raises(ValueError):
            fit_online(ds, 50, method=method)
