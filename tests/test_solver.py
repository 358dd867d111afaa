from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from colide import scores, solver
from colide.bench import ExperimentConfig, generate_instance
from colide.errors import CyclicGraphError, DataError
from colide.graphs import GraphModelSpec, is_dag
from colide.metrics import evaluate
from colide.rng import stream
from colide.scores import DomainViolation, grad_ldet, h_ldet, ldet_and_grad
from colide.sem import Dataset, NoiseSpec, sample_cov, sample_noise, simulate_sem
from colide.solver import (
    EARLY_STOP_RTOL,
    METHODS,
    FitError,
    FitResult,
    StageSchedule,
    adam_step,
    default_schedule,
    domain_guard,
    fit,
    fit_online,
    fit_stack,
    threshold,
)

from helpers import method_core, noise_floor

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

    def guard(run, *rest):
        stalled = domain_guard(run, *rest)
        accepted.append(run.W[0].copy())  # fit runs a stack of one, which later guards move in place
        return stalled

    with mock.patch.object(solver, "domain_guard", guard):
        res = fit(ds, **kw)
    return res, accepted


def stage_objectives(ds, method, schedule, lam=0.05):
    """Fit, then recompute each iteration's stage objective from its accepted W.

    Returns (result, one array per stage): mu * (score + lam * ||W||_1) + h
    of the method core, at the closed-form scale of that W (1 for ls_baseline).
    """
    res, accepted = fit_recording(ds, method=method, schedule=schedule, lam=lam)
    floor = noise_floor(method, ds)
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
        for stage in ((1.0, 0.0, 10), (0.0, 1.0, 10), (-1.0, 1.0, 10), (np.inf, 1.0, 10), (1.0, np.inf, 10),
                      (np.nan, 1.0, 10), (1.0, np.nan, 10), (1.0, 1.0, 2.5), (1.0, 1.0, 10.0), (1.0, 1.0, "10")):
            with pytest.raises(ValueError):
                StageSchedule(stages=(stage,))
        with pytest.raises(ValueError, match="one or more stages"):
            StageSchedule(stages=())


class TestAdam:
    def test_first_step_is_signed_lr(self):
        grad = np.array([[0.0, 3.0], [-2.0, 0.0]])
        m, v, update = adam_step(np.zeros((2, 2)), np.zeros((2, 2)), grad, 1, 0.01)
        # bias correction makes the first step lr * sign(grad) (up to eps)
        assert np.allclose(update, -0.01 * np.sign(grad), atol=1e-6)
        assert np.allclose(m, 0.1 * grad, rtol=1e-15) and np.allclose(v, 1e-3 * grad * grad, rtol=1e-12)

    def test_constant_gradient_limit(self):
        grad = np.zeros((2, 2))
        grad[0, 1] = 0.7
        m = v = np.zeros((2, 2))
        for t in range(1, 501):
            m, v, update = adam_step(m, v, grad, t, 0.5)
        assert update[0, 1] == pytest.approx(-0.5, rel=1e-3)


def setup_stack(B, d, stages=1):
    """_setup's colide_ev stack of B random d-variable datasets at W = 0."""
    rng = np.random.default_rng(0)
    fits, errors = solver._setup([Dataset(X=rng.standard_normal((d, 10))) for _ in range(B)], ["colide_ev"] * B, stages)
    assert not errors
    return fits


def guard_stack(W, update, s):
    """domain_guard on a (B, d, d) stack moved to W, at W's own h and grad_h; returns (run, stalled) after it.

    Every candidate is on the checked LU inverse: an X of NaNs certifies no Newton-Schulz
    refresh. Checks that a stalled slice keeps the very W, h, grad_h and X it had, and that an
    accepted slice's h, grad_h and X are ldet_and_grad's at its accepted W.
    """
    run = setup_stack(*W.shape[:2])
    run.W, run.X = W.copy(), np.full_like(W, np.nan)
    run.h, run.grad_h, _, _ = ldet_and_grad(W, s)
    before = run.take(np.arange(len(W)))  # a copy of every field
    stalled = domain_guard(run, update, s)
    for b in range(len(W)):
        if b in stalled:
            want = before.W[b], before.h[b], before.grad_h[b], before.X[b]
        else:
            h, grad_h, X, inside = ldet_and_grad(run.W[b][None], s)
            assert inside[0]
            want = run.W[b], h[0], grad_h[0], X[0]
        for got, expect in zip((run.W[b], run.h[b], run.grad_h[b], run.X[b]), want):
            assert np.array_equal(got, expect, equal_nan=True)
    return run, stalled


def guard_one(W, update, s):
    """guard_stack on a stack of one: (W, stalled, h, grad_h) of the slice."""
    run, stalled = guard_stack(W[None], update[None], s)
    return run.W[0], stalled.tolist() == [0], run.h[0], run.grad_h[0]


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
        # the stalled slice keeps its own W, h and log-det gradient
        assert np.array_equal(out, W)
        assert h == h_ldet(W, 1.0) and np.array_equal(grad_h, grad_ldet(W, 1.0))

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
        run, stalled = guard_stack(W, up, s=1.0)
        assert stalled.tolist() == [2] and np.array_equal(run.W[2], edge)
        for b in range(3):
            one = guard_one(W[b], up[b], s=1.0)
            assert np.array_equal(run.W[b], one[0])
            assert run.h[b] == one[2]
            assert np.array_equal(run.grad_h[b], one[3])


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
                                         dict(lr=float("nan")), dict(lr=float("inf")), dict(lam=float("inf"))])
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
        assert res.scale >= noise_floor("colide_ev", ds)

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

    def test_singular_warm_start_has_the_one_domain_message(self):
        # a singular sI - W*W has s as an eigenvalue of W*W: the fault is the domain's, with its message
        run = setup_stack(2, 2, stages=2)
        run.W[1, 0, 1] = run.W[1, 1, 0] = 1.0
        failed = solver._stage_entry(run, 1.0, 1)
        assert list(failed) == [1] and isinstance(failed[1], FitError)
        assert (failed[1].stage, failed[1].iteration) == (1, 0)
        assert str(failed[1]) == "stage 1 warm start: s=1.0 is not above the spectral radius of W*W"

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
        # one slogdet per iteration, of the guard's accepted candidate, and one per stage
        # start, of the warm start; one LU inverse per stage start, and one in an iteration
        # only when the Newton-Schulz refresh of the previous inverse is not certified (a
        # fallback; the larger lr makes some); no update here is halved
        _, _, ds = small_instance(seed=13)
        sched = StageSchedule(stages=((1.0, 1.0, 200), (0.1, 0.9, 200)))
        calls, fallbacks, newton_schulz = {}, [], scores._newton_schulz
        for name in ("slogdet", "inv"):
            def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kw):
                calls[_name] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counted)

        def counting(*args):
            X, ok = newton_schulz(*args)
            fallbacks.append(not ok.all())
            return X, ok

        monkeypatch.setattr(scores, "_newton_schulz", counting)
        for lr in (3e-4, 3e-3):
            calls.update(slogdet=0, inv=0)
            fallbacks.clear()
            res = fit(ds, method=method, schedule=sched, lr=lr)
            iters = sum(res.iters_per_stage)
            assert res.stalls == 0 and len(fallbacks) == iters
            stages = len(sched.stages)
            assert calls == {"slogdet": iters + stages, "inv": stages + sum(fallbacks)}
            assert any(fallbacks) == (lr > 1e-3)


def kind_dataset(kind, d, rng, block=4):
    """A d-node dataset whose fits take different paths in one stack.

    "sparse": rows with disjoint supports, so cov is diagonal, the gradient is
    0 and W stays 0 (early stop at iteration 2); "pair": the same with row 1
    following row 0, so W grows one 2-cycle; "dense": every row shares a
    component, so a huge step leaves the domain at every halving (stall);
    "random": independent Gaussian rows; "huge": random rows whose covariance
    overflows, and "zero-row" (random rows but the last, all zero),
    "huge-zero-row" (the same at 1e200) and "zeros" (all zero), which have no
    usable colide_nv floor (and "zeros" no colide_ev one), so the slice is a
    DataError from the start; "huge-trace": one sample of every variable at
    1e154, whose covariance (1e308) is finite but whose trace, and with it the
    colide_ev floor, is not, also a DataError; "large": random rows at 1e80, whose covariance
    is finite but whose ls_baseline gradient (the covariance) overflows
    ADAM's second moment, a FitError.
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
    elif kind in ("zero-row", "huge-zero-row"):
        X = (1e200 if kind == "huge-zero-row" else 1.0) * rng.standard_normal(X.shape)
        X[-1] = 0.0
    elif kind == "zeros":
        X = np.zeros(X.shape)
    elif kind == "huge-trace":
        X = np.full((d, 1), 1e154)
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
MIXED = dict(slices=[(kind, "colide_ev") for kind in KINDS], d=3, lr=1e6, stages=[(1.0, 40), (0.2, 40)], seed=0)


def one_method(method, kinds):
    return [(kind, method) for kind in kinds]


# every data fault, each with its DataError message; a zero floor is reported over an
# overflowing covariance, and an infinite floor from a finite covariance is an overflowing
# one. FAULT_STACK puts them between two slices that fit
DATA_FAULTS = {("zeros", "colide_ev"): "all-zero dataset has no usable noise floor",
               ("zero-row", "colide_nv"): "identically-zero variable has no usable noise floor",
               ("huge", "colide_ev"): "sample covariance overflows: data values too large",
               ("huge-zero-row", "colide_nv"): "identically-zero variable has no usable noise floor",
               ("huge-trace", "colide_ev"): "sample covariance overflows: data values too large"}
FAULT_STACK = [("random", "colide_nv"), *DATA_FAULTS, ("sparse", "colide_ev")]


class TestFitStack:
    @settings(max_examples=60, deadline=None)
    @given(slices=hs.lists(hs.tuples(hs.sampled_from(KINDS), hs.sampled_from(METHODS)), min_size=1, max_size=5),
           d=hs.integers(2, 8),
           lr=hs.sampled_from([1e-2, 0.3, 1e6]),
           stages=hs.lists(hs.tuples(hs.sampled_from([1.0, 0.7, 0.2]), hs.integers(1, 40)),
                           min_size=1, max_size=3),
           seed=hs.integers(0, 2 ** 32 - 1))
    @example(**MIXED)
    @example(slices=one_method("colide_nv", ["sparse", "dense", "random"]), d=2, lr=1e-2,
             stages=[(1.0, 40), (0.2, 40)], seed=0)
    # every method in one stack, listed out of the stack's method order
    @example(slices=[("random", "ls_baseline"), ("dense", "colide_nv"), ("random", "colide_ev"),
                     ("sparse", "colide_nv"), ("pair", "colide_ev")], d=4, lr=1e-2,
             stages=[(1.0, 40), (0.7, 40)], seed=0)
    # every slice has failed before the last stage starts
    @example(slices=one_method("colide_ev", ["pair"]), d=2, lr=1e6, stages=[(1.0, 1), (0.7, 1), (1.0, 1)], seed=0)
    # slice 0 leaves stage 1's domain at its warm start, slice 1 stage 2's
    @example(slices=one_method("colide_ev", ["dense", "pair"]), d=2, lr=1e6,
             stages=[(1.0, 40), (0.7, 40), (0.2, 40)], seed=0)
    # slice 1's covariance overflows: a DataError of its own, without RuntimeWarnings, while the others run on
    @example(slices=one_method("colide_nv", ["sparse", "huge", "random"]), d=3, lr=0.3,
             stages=[(1.0, 40), (0.7, 40)], seed=0)
    # slices 1-5 are data faults, while the others run on
    @example(slices=FAULT_STACK, d=3, lr=0.3,
             stages=[(1.0, 40), (0.7, 40)], seed=0)
    # slice 1's ADAM second moment overflows in stage 0, while the others run on
    @example(slices=one_method("ls_baseline", ["random", "large", "sparse"]), d=3, lr=0.3,
             stages=[(1.0, 40), (0.7, 40)], seed=0)
    def test_each_slice_is_its_own_fit_property(self, slices, d, lr, stages, seed):
        # one method drawn per dataset: a stack that spans methods gives each slice its own fit
        rng = np.random.default_rng(seed)
        datasets = [kind_dataset(kind, d, rng) for kind, _ in slices]
        methods = [method for _, method in slices]
        kw = dict(lr=lr, schedule=StageSchedule(
            stages=tuple((10.0 ** -k, s, cap) for k, (s, cap) in enumerate(stages))))
        for got, want in zip(fit_stack(datasets, methods, **kw),
                             [fit_or_error(ds, method=m, **kw) for ds, m in zip(datasets, methods)]):
            if isinstance(want, Exception):
                assert error_key(got) == error_key(want)
                continue
            assert np.array_equal(got.W, want.W)
            assert np.array_equal(got.W_thresholded, want.W_thresholded)
            assert np.array_equal(np.asarray(got.scale, dtype=float), np.asarray(want.scale, dtype=float),
                                  equal_nan=True)
            assert got.iters_per_stage == want.iters_per_stage
            assert got.stalls == want.stalls

    # just below the covariance check: one sample at 1e154 has a finite covariance (1e308),
    # so the ls_baseline score overflows at the first step, with no RuntimeWarning, also when
    # the first step is the stage cap, while the colide_ev slices beside it run on (under
    # colide_ev the same data is a DataError: its trace, and with it the floor, overflows)
    def test_objective_that_overflows_is_its_slices_fit_error(self):
        rng = np.random.default_rng(0)
        datasets = [kind_dataset("random", 3, rng), Dataset(X=np.full((3, 1), 1e154)),
                    Dataset(X=1e153 * kind_dataset("dense", 3, rng).X)]
        for cap in (1, 40):
            kw = dict(lr=1e-2, schedule=StageSchedule(stages=((1.0, 1.0, cap),)))
            got, diverged, fitted = fit_stack(datasets, ["colide_ev", "ls_baseline", "colide_ev"], **kw)
            assert (str(diverged), diverged.stage, diverged.iteration) == (
                "objective diverged (stage 0, iteration 1)", 0, 1)
            assert np.array_equal(got.W, fit(datasets[0], "colide_ev", **kw).W)
            # 1e153 data whose ||X||_F overflows, but not its covariance's trace: the floor
            # sqrt(tr C / d) * 1e-2 is finite, and so is the fit
            assert np.isfinite(fitted.W).all() and np.isfinite(fitted.scale)

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
        datasets = [kind_dataset(kind, MIXED["d"], rng) for kind, _ in MIXED["slices"]]
        sched = StageSchedule(stages=((1.0, 1.0, 40), (0.1, 0.2, 40)))
        sparse, pair, dense, _, _, zeros, _ = fit_stack(datasets, [m for _, m in MIXED["slices"]], sched,
                                                        lr=MIXED["lr"])
        assert sparse.iters_per_stage == [2, 2] and sparse.stalls == 0
        assert isinstance(pair, FitError) and (pair.stage, pair.iteration) == (1, 0)
        assert "warm start" in str(pair)
        assert dense.stalls > 0
        assert isinstance(zeros, DataError) and "no usable noise floor" in str(zeros)

    def test_each_data_fault_keeps_its_message(self):
        rng = np.random.default_rng(0)
        got = fit_stack([kind_dataset(kind, 3, rng) for kind, _ in FAULT_STACK], [m for _, m in FAULT_STACK],
                        StageSchedule(((1.0, 1.0, 40),)), lr=0.3)
        assert [type(r) for r in got] == [FitResult, *[DataError] * len(DATA_FAULTS), FitResult]
        assert [str(err) for err in got[1:-1]] == list(DATA_FAULTS.values())

    @settings(max_examples=40, deadline=None)
    @given(method=hs.sampled_from(METHODS), d=hs.integers(2, 8), kind=hs.sampled_from(KINDS),
           lr=hs.sampled_from([3e-4, 3e-3, 1e-2]),
           stages=hs.lists(hs.tuples(hs.sampled_from([1.0, 0.7, 0.2]), hs.integers(20, 200)), min_size=1, max_size=3),
           seed=hs.integers(0, 2 ** 32 - 1))
    def test_relabelled_data_gives_the_relabelled_fit_property(self, method, d, kind, lr, stages, seed):
        # every quantity of a fit is equivariant under a permutation of the nodes, so a fit of
        # P X is P W P^T up to rounding; with no early stop, rounding cannot move a stopping
        # iteration, and lr <= 1e-2 keeps halvings away from the domain's edge. Rounding grows
        # where M = sI - W*W is ill-conditioned: a search that maximised the gap reached 1.3e-10
        # in W, while taking the colide_ev floor from X's first row moves W by 7e-5
        rng = np.random.default_rng(seed)
        ds, perm = kind_dataset(kind, d, rng), rng.permutation(d)
        truth = np.triu(rng.random((d, d)) < 0.5, 1).astype(float)
        truth[0, -1] = 1.0  # a truth with no edges is a DataError of evaluate
        kw = dict(method=method, lr=lr, schedule=StageSchedule(
            stages=tuple((10.0 ** -k, s, cap) for k, (s, cap) in enumerate(stages))))
        with mock.patch.object(solver, "EARLY_STOP_RTOL", 0.0):
            res, relabelled = fit_or_error(ds, **kw), fit_or_error(Dataset(X=ds.X[perm]), **kw)
        if isinstance(res, Exception):
            assert error_key(relabelled) == error_key(res)
            return
        assert np.abs(relabelled.W - res.W[np.ix_(perm, perm)]).max() <= 1e-8
        scale, got = np.asarray(res.scale, dtype=float), np.asarray(relabelled.scale, dtype=float)  # None is NaN
        assert np.allclose(got, scale if np.ndim(scale) == 0 else scale[perm], rtol=1e-8, atol=0, equal_nan=True)
        assert relabelled.iters_per_stage == res.iters_per_stage and relabelled.stalls == res.stalls
        reports = []
        for W, true in ((res.W_thresholded, truth), (relabelled.W_thresholded, truth[np.ix_(perm, perm)])):
            try:
                reports.append(evaluate(W, true))
            except CyclicGraphError as exc:  # a cycle left by the threshold
                reports.append(str(exc))
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("method", METHODS)
    def test_every_row_keeps_its_covariance_product(self, method, monkeypatch):
        # the MIXED kinds under each method: each stage starts, and the fit ends, on rows whose
        # P is cov (I - W) at their own W, bit for bit, for every slice without a fault so far
        rng = np.random.default_rng(MIXED["seed"])
        datasets = [kind_dataset(kind, MIXED["d"], rng) for kind, _ in MIXED["slices"]]
        setup, entry, made, entries = solver._setup, solver._stage_entry, [], []

        def recording_setup(*args):
            fits, errors = setup(*args)
            made.append(fits)
            return fits, errors

        def checked_entry(run, s, k):
            entries.append((k, bool(run.W.any())))
            assert np.array_equal(run.P, run.cov @ (np.eye(MIXED["d"]) - run.W)), k
            return entry(run, s, k)

        monkeypatch.setattr(solver, "_setup", recording_setup)
        monkeypatch.setattr(solver, "_stage_entry", checked_entry)
        results = fit_stack(datasets, method, StageSchedule(stages=((1.0, 1.0, 40), (0.1, 0.2, 40))),
                            lr=MIXED["lr"])
        fitted = [b for b, res in enumerate(results) if isinstance(res, FitResult)]
        fits = made[0]
        # stage 1 starts from a W that moved, where P = cov would not do
        assert [k for k, _ in entries] == [0, 1] and entries[1][1] and fitted
        assert np.array_equal(fits.P[fitted], (fits.cov @ (np.eye(MIXED["d"]) - fits.W))[fitted])

    def test_datasets_must_share_one_size(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            fit_stack([kind_dataset("random", 3, rng), kind_dataset("random", 4, rng)])
        with pytest.raises(ValueError):
            fit_stack([])
        # one method for every dataset, or one per dataset
        with pytest.raises(ValueError):
            fit_stack([kind_dataset("random", 3, rng)] * 2, ["colide_ev"])


class TestSlices:
    def test_take_keeps_every_field_aligned(self):
        # every field, present or added later, is one row per slice, and take moves the rows together
        rng, B, d = np.random.default_rng(0), 5, 3
        run = setup_stack(B, d, stages=4)
        assert np.array_equal(run.b, np.arange(B)) and np.array_equal(run.P, run.cov)
        assert all(getattr(run, name).shape == (B, d, d) for name in ("W", "grad_h", "X", "P", "m", "v", "cov"))
        for name, a in vars(run).items():
            assert len(a) == B, name
            if name != "b":  # distinct values in every entry of every field
                setattr(run, name, (np.arange(a.size).reshape(a.shape) + 1000 * rng.random()).astype(a.dtype))
        perm = [3, 0, 4, 1, 2]
        taken = run.take(perm)
        assert vars(taken).keys() == vars(run).keys() and np.array_equal(taken.b, perm)
        for name, a in vars(run).items():
            got = getattr(taken, name)
            assert got.dtype == a.dtype and np.array_equal(got, a[perm]), name
            assert not np.shares_memory(got, a), name

    def test_store_writes_only_its_datasets_rows(self):
        rng, B, d = np.random.default_rng(1), 5, 3
        fits = setup_stack(B, d, stages=4)
        before = {name: a.copy() for name, a in vars(fits).items()}
        run, rows, others = fits.take([3, 1]), [3, 1], [0, 2, 4]
        run.W, run.P, run.scale = rng.random((2, d, d)), rng.random((2, d, d)), rng.random((2, d))
        run.stalls = np.array([7, 9])
        run.h, run.m = rng.random(2), rng.random((2, d, d))  # state that store leaves alone
        run.store(fits, 2, 11)
        assert np.array_equal(fits.W[rows], run.W) and np.array_equal(fits.P[rows], run.P)
        assert np.array_equal(fits.scale[rows], run.scale)
        assert np.array_equal(fits.stalls[rows], [7, 9]) and np.array_equal(fits.iters[rows, 2], [11, 11])
        fits.iters[rows, 2] = 0
        for name, a in vars(fits).items():
            unchanged = others if name in ("W", "P", "scale", "stalls") else slice(None)
            assert np.array_equal(a[unchanged], before[name][unchanged]), name


class TestOnline:
    def test_one_variable_is_the_batch_data_error(self):
        # both drivers decide the data faults in one setup
        ds = Dataset(X=np.random.default_rng(0).standard_normal((1, 50)))
        for run in (lambda: fit(ds), lambda: fit_online(ds, 10)):
            with pytest.raises(DataError, match="^need at least two variables$"):
                run()

    def test_single_batch_cov_is_sample_cov(self, monkeypatch):
        _, _, ds = small_instance(seed=8, d=6, n=120)
        seen, guarded = [], solver._guarded_step

        def recording(run, *rest):
            seen.append(run.P[0].copy())
            return guarded(run, *rest)

        monkeypatch.setattr(solver, "_guarded_step", recording)
        fit_online(ds, ds.n, schedule=StageSchedule(((1.0, 1.0, 1),)), epochs_per_stage=[1])
        # the one update steps from W = 0, where the product cov (I - W) is the covariance itself
        assert len(seen) == 1 and np.allclose(seen[0], sample_cov(ds))

    def test_batch_mean_identity(self, monkeypatch):
        # update u of a stage steps against the mean of that stage's first u + 1 batch covariances
        # (times I - W), and each stage's scale is the closed form of the mean of its batches'
        # residual Gram diagonals at the pre-update W: both running means restart with the stage
        _, _, ds = small_instance(seed=9, d=6, n=120, profile="nv")
        covs = [ds.X[:, i:i + 30] @ ds.X[:, i:i + 30].T / 30 for i in range(0, 120, 30)]
        seen, guarded = [], solver._guarded_step

        def recording(run, *rest):
            seen.append((np.eye(run.W.shape[-1]) - run.W[0], run.P[0].copy()))
            return guarded(run, *rest)

        monkeypatch.setattr(solver, "_guarded_step", recording)
        snaps = fit_online(ds, 30, method="colide_nv", schedule=StageSchedule(((1.0, 1.0, 4), (0.1, 0.9, 4))),
                           epochs_per_stage=[1, 1])
        assert len(seen) == 8 and len(snaps) == 2
        for k, (_, _, _, scale) in enumerate(snaps):
            stage = seen[4 * k:4 * (k + 1)]
            for u, (I_W, P) in enumerate(stage):
                assert np.allclose(P, np.mean(covs[:u + 1], axis=0) @ I_W)
            gram = np.mean([I_W.T @ c @ I_W for (I_W, _), c in zip(stage, covs)], axis=0)
            assert np.allclose(scale, np.maximum(np.sqrt(np.diag(gram)), noise_floor("colide_nv", ds)))

    def test_scale_floor(self):
        # node 1 is twice node 0, so its residual vanishes once W[0, 1] = 2 and the scale stops at the floor
        x = np.random.default_rng(0).standard_normal(40)
        ds = Dataset(X=np.stack([x, 2 * x]))
        snaps = fit_online(ds, 10, method="colide_nv", epochs_per_stage=[50] * 4, lr=1e-2)
        assert snaps[-1][3][1] == noise_floor("colide_nv", ds)[1]
        assert snaps[-1][3][0] > noise_floor("colide_nv", ds)[0]

    def test_nv_statistic_per_node(self):
        _, _, ds = small_instance(seed=10, d=6, n=120, profile="nv")
        snaps = fit_online(ds, ds.n, method="colide_nv", schedule=StageSchedule(((1.0, 1.0, 1),)),
                           epochs_per_stage=[1])
        # one batch of all n samples at W = 0: the statistic is the per-node mean square
        expect = (ds.X ** 2).sum(axis=1) / ds.n
        assert np.allclose(snaps[-1][3], np.sqrt(expect))

    @pytest.mark.parametrize("method", ["colide_ev", "colide_nv"])
    @pytest.mark.parametrize("scale", [1e153, 1e200])
    def test_overflowing_data_is_a_data_error(self, method, scale):
        # fit_stack's error for the same data, raised before any batch streams
        X = scale * np.where(np.random.default_rng(0).random((2, 1000)) < 0.5, -1.0, 1.0)
        expect = fit_stack([Dataset(X=X)], method)[0]
        assert isinstance(expect, DataError)
        with pytest.raises(DataError, match=f"^{expect}$"):
            fit_online(Dataset(X=X), 100, method=method)

    @pytest.mark.parametrize("kind, method", DATA_FAULTS)
    def test_a_data_fault_is_the_batch_fits(self, kind, method):
        # one setup decides both drivers' data faults, before any batch streams: a zero floor
        # before an overflow
        ds = kind_dataset(kind, 3, np.random.default_rng(0))
        expect = fit_stack([ds], method)[0]
        assert isinstance(expect, DataError)
        with pytest.raises(DataError, match=f"^{expect}$"):
            fit_online(ds, ds.n, method=method)

    @pytest.mark.parametrize("method", ["colide_ev", "colide_nv"])
    def test_long_stage_running_means_stay_finite(self, method):
        # 20,000 updates on data at 1e152, whose covariance (1e304) is finite: the running means
        # are incremental, where t * cov would pass the float range near update 18,000
        ds = Dataset(X=1e152 * np.where(np.random.default_rng(0).random((2, 1000)) < 0.5, -1.0, 1.0))
        snaps = fit_online(ds, 100, method=method, schedule=StageSchedule(((1.0, 1.0, 1),)), epochs_per_stage=[2000])
        _, _, W, scale = snaps[-1]
        assert np.isfinite(W).all() and np.all(scale >= noise_floor(method, ds))

    def test_gradient_overflow_is_a_fit_error(self):
        # the covariance of this data is finite; the gradient of its first batch of one sample
        # (9e153 squared over a scale of 9e151) squared in ADAM's second moment is not
        X = np.zeros((2, 10_000))
        X[:, 0] = 9e153
        with pytest.raises(FitError, match=r"gradient overflow \(update 1\)"):
            fit_online(Dataset(X=X), 1, method="colide_ev")

    def test_first_update_checks_the_domain(self, monkeypatch):
        # a stage's warm start outside the domain is a FitError before its first update
        rng = np.random.default_rng(0)
        ds = Dataset(X=rng.standard_normal((5, 20)) + 3.0 * rng.standard_normal(20))
        with pytest.raises(FitError, match="stage 1 warm start: s=0.2 is not above the spectral radius"):
            fit_online(ds, 5, schedule=StageSchedule(((1.0, 1.0, 1), (0.1, 0.2, 1))), epochs_per_stage=[10, 10],
                       lr=1000.0)
        # inside the domain the stage entry inverts and slogdets the warm start, and each update
        # slogdets the guard's accepted candidate, whose inverse, refreshed from the previous one
        # by Newton-Schulz steps that certify every update here, gives the next log-det gradient
        _, _, ds = small_instance(seed=8, d=6, n=120)
        calls = {"slogdet": 0, "inv": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kw):
                calls[_name] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        fit_online(ds, 40, schedule=StageSchedule(((1.0, 1.0, 3),)), epochs_per_stage=[1])
        assert calls == {"slogdet": 4, "inv": 1}

    def test_a_stalled_update_keeps_its_gradient(self, monkeypatch):
        # a huge step on rows sharing a component stalls some updates; a stalled slice keeps its
        # W and its own log-det gradient, from which the next update steps
        rng = np.random.default_rng(0)
        ds = Dataset(X=rng.standard_normal((3, 12)) + 3.0 * rng.standard_normal(12))
        stalled, guard = [], solver.domain_guard

        def counting(run, *rest):
            out = guard(run, *rest)
            stalled.append(len(out))
            return out

        monkeypatch.setattr(solver, "domain_guard", counting)
        snaps = fit_online(ds, 4, schedule=StageSchedule(((1.0, 1.0, 1),)), epochs_per_stage=[10], lr=3e5)
        assert 0 < sum(stalled) < len(stalled) == 30
        h_ldet(snaps[-1][2], 1.0)

    @settings(max_examples=50, deadline=None)
    @given(hs.sampled_from(["colide_ev", "colide_nv"]), hs.integers(2, 6),
           hs.sampled_from([3e-4, 1e-2, 0.3]), hs.sampled_from([1.0, 0.1, 0.001]),
           hs.sampled_from([1.0, 0.7]), hs.integers(1, 20),
           hs.lists(hs.tuples(hs.sampled_from([1e-9, 1.0, 10.0]), hs.sampled_from([0.0, 3.0])),
                    min_size=1, max_size=25),
           hs.integers(0, 2 ** 32 - 1))
    def test_scale_floor_and_domain_hold_property(self, method, d, lr, mu, s, n_b, batches, seed):
        rng = np.random.default_rng(seed)
        # one batch of n_b samples per drawn (amplitude, shared) pair, streamed for two epochs;
        # a shared component correlates all nodes and pulls W towards cycles
        ds = Dataset(X=np.hstack([amplitude * (rng.standard_normal((d, n_b)) + shared * rng.standard_normal(n_b))
                                  for amplitude, shared in batches]))
        floor = noise_floor(method, ds)
        snaps = fit_online(ds, n_b, method=method, schedule=StageSchedule(((mu, s, 1),)), epochs_per_stage=[2],
                           lr=lr)
        for _, _, W, scale in snaps:
            assert np.all(scale >= floor)
            h_ldet(W, s)  # raises DomainViolation outside the domain

    def test_fit_online_tracks_batch_fit(self):
        _, _, ds = small_instance(seed=11, d=8, n=400)
        res = fit(ds, method="colide_ev", schedule=FAST)
        snaps = fit_online(ds, 100, method="colide_ev", schedule=FAST, snapshot_every=50)
        _, _, W, scale = snaps[-1]
        rel = np.linalg.norm(W - res.W) / np.linalg.norm(res.W)
        assert rel < 0.35
        assert abs(scale - res.scale) / res.scale < 0.1
        assert len(snaps) > 1  # per-epoch history recorded

    def test_fit_online_bad_snapshot_every(self):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        for every in (0, 2.5):
            with pytest.raises(ValueError, match="snapshot_every"):
                fit_online(ds, 50, snapshot_every=every)

    @pytest.mark.parametrize("epochs", [[0, 0, 0, 0], [-3, 1, 1, 1], [1, 1, 1], [1.5, 1, 1, 1], [1, 1, 1, 2.0]])
    def test_fit_online_bad_epochs_per_stage(self, epochs):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        with pytest.raises(ValueError, match="epochs_per_stage"):
            fit_online(ds, 50, epochs_per_stage=epochs)

    def test_fit_online_bad_batch_size(self):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        for batch_size in (0, 101, 10.5, 10.0):
            with pytest.raises(ValueError, match="batch_size"):
                fit_online(ds, batch_size)

    @pytest.mark.parametrize("setting", [{"lr": -1.0}, {"lr": 0.0}, {"lr": np.nan}, {"lr": np.inf}, {"lam": -1.0},
                                         {"lam": np.nan}, {"lam": np.inf}],
                             ids=["lr-negative", "lr-zero", "lr-nan", "lr-inf", "lam-negative", "lam-nan", "lam-inf"])
    def test_online_drivers_check_their_settings(self, setting):
        # the batch driver's check, made before any batch streams: 0 < lr < inf and 0 <= lambda < inf, NaN failing
        _, _, ds = small_instance(seed=12, d=6, n=100)
        with pytest.raises(ValueError, match="need lr > 0"):
            fit_online(ds, 50, schedule=StageSchedule(((0.001, 0.7, 50),)), **setting)

    @pytest.mark.parametrize("method", ["ls_baseline", "no_such_method"])
    def test_fit_online_needs_a_scale_method(self, method):
        _, _, ds = small_instance(seed=12, d=6, n=100)
        with pytest.raises(ValueError):
            fit_online(ds, 50, method=method)
