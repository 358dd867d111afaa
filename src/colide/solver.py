"""Staged inexact block coordinate descent, run over a stack of fits.

Each stage solves the dualized problem mu_k * score + h_ldet(W, s_k): one
ADAM step on W per inner iteration (with an l1 subgradient folded in and a
domain guard on the log-det term), followed by the closed-form scale update.
Stages warm-start W and the scale; ADAM moments reset at stage boundaries.

fit_stack runs B datasets of one size as a (B, d, d) stack, each slice on
exactly the iterates a fit of its own would take; fit is a stack of one.
One _Slices object carries a stack's state, a row per slice of its method,
W, h, grad_h, the inverse X of M = sI - W*W, cov, P = cov (I - W), ADAM's m
and v, the floor, scale, stall and iteration counts. Both drivers run one
flow: _setup builds every dataset's row at W = 0 and decides data faults; a
stage takes the rows still fitting, ordered by method so that each method's
cores run on one contiguous block; the guard moves the take in place; and a
slice leaving the stage is stored, P with W, to its dataset's row, from which
the next stage starts and the result is read. Per stack iteration without
halvings:
- one slogdet of the guard's accepted M, for h in the objective;
- two Newton-Schulz steps (four d x d matmuls) that refresh the previous
  iterate's X to M^{-1}, and a residual and Collatz-Wielandt test that
  certifies the domain s > rho(W*W) (scores._newton_schulz); X gives the
  next log-det gradient. A slice the test does not certify falls back to an
  LU inverse, judged by the same certificate (scores._certified);
- one covariance product P = cov (I - W), which serves the next gradient
  and, through the residual Gram diagonal ((I - W) * P).sum(-2), the scale
  and the score.
A stage start and every halving of the guard take the LU inverse. Every
numpy call broadcasts over the slices, so the fixed cost of the ~60 calls
of an iteration, which dominates at d = 20, is paid once per stack: at
d = 20 an iteration took about 155 us for a stack of six and 80 us for a
stack of one, and at d = 50 and 100 about 150 and 475 us for a stack of one
(2-vCPU Xeon VM, one BLAS thread).
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainViolation, FitError
from .scores import METHOD_CORES, ldet_and_grad, residual_diag
from .sem import Dataset, sample_cov

__all__ = [
    "StageSchedule",
    "FitResult",
    "FitError",
    "default_schedule",
    "adam_step",
    "domain_guard",
    "threshold",
    "fit",
    "fit_stack",
    "fit_online",
]

METHODS = tuple(METHOD_CORES)

DEFAULT_LAMBDA = 0.05
DEFAULT_LR = 3e-4
DEFAULT_THRESHOLD = 0.3
EARLY_STOP_RTOL = 1e-6
MAX_HALVINGS = 20
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_COUNT = (int, np.integer)  # the types of an iteration, epoch or sample count
_NO_SLICES = np.zeros(0, dtype=int)


@dataclass(frozen=True)
class StageSchedule:
    """One or more ordered stages (mu, s, max_iters) with strictly decreasing mu."""

    stages: tuple

    def __post_init__(self):
        mus = [mu for mu, _, _ in self.stages]
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ValueError("mu must be strictly decreasing across stages")
        if not mus or not all(0 < mu < math.inf and 0 < s < math.inf and isinstance(t, _COUNT) and t >= 1
                              for mu, s, t in self.stages):
            raise ValueError("need one or more stages, each with finite mu > 0 and s > 0 and integer max_iters >= 1")


def default_schedule() -> StageSchedule:
    """Four stages: mu 1 -> 0.001, s 1 -> 0.7, iteration caps 2e4/2e4/2e4/7e4."""
    return StageSchedule(stages=(
        (1.0, 1.0, 20000),
        (0.1, 0.9, 20000),
        (0.01, 0.8, 20000),
        (0.001, 0.7, 70000),
    ))


def adam_step(m: np.ndarray, v: np.ndarray, grad: np.ndarray, t: int, lr: float):
    """Bias-corrected ADAM step t >= 1 of size lr from the moments m, v of steps 1..t-1 (zeros at t = 1).

    Returns (m, v, update): the moments after step t and the update to add to W. A stage counts its steps from 1.
    """
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    return m, v, -lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def domain_guard(run, update: np.ndarray, s: float) -> np.ndarray:
    """Move run's (B, d, d) stack to W + update, halving a slice's update while it leaves the log-det domain.

    Writes each accepted W and its (h, grad_h, X) = ldet_and_grad, from the inverse that checked it,
    into run. Returns the slices that stalled, as MAX_HALVINGS halvings all left the domain; they keep
    their W, h, grad_h and X. run.X holds inverses of sI - W*W at W: the full step refreshes them by
    Newton-Schulz steps, and the halvings invert afresh. run.W is assumed in-domain on entry.
    """
    candidate = run.W + update
    h, grad_h, X, inside = ldet_and_grad(candidate, s, run.X)
    if inside.all():
        run.W, run.h, run.grad_h, run.X = candidate, h, grad_h, X
        return _NO_SLICES
    bad, step, ok = np.arange(len(inside)), update, inside
    for halving in range(MAX_HALVINGS + 1):
        run.W[bad[ok]], run.h[bad[ok]], run.grad_h[bad[ok]], run.X[bad[ok]] = candidate[ok], h[ok], grad_h[ok], X[ok]
        bad, step = bad[~ok], step[~ok] / 2.0
        if not len(bad) or halving == MAX_HALVINGS:
            return bad
        candidate = run.W[bad] + step
        h, grad_h, X, ok = ldet_and_grad(candidate, s)


def _guarded_step(run, t, mu, lam, lr, s):
    """ADAM step t of run's slices, then the guard; updates W, h, grad_h, X, m and v in place, returns the stalled."""
    # the smooth-part gradient -P / scale: its sign moves into the l1 sum exactly
    grad = mu * (lam * np.sign(run.W) - run.P / run.scale[:, None, :]) + run.grad_h
    grad.reshape(len(grad), -1)[:, ::grad.shape[-1] + 1] = 0.0
    run.m, run.v, update = adam_step(run.m, run.v, grad, t, lr)
    return domain_guard(run, update, s)


def _stage_entry(run, s, k):
    """Start stage k at run's W: set h, grad_h and X there, zero the moments; a FitError per dataset off the domain."""
    run.h, run.grad_h, run.X, inside = ldet_and_grad(run.W, s)
    run.m, run.v = np.zeros_like(run.W), np.zeros_like(run.W)
    return {b: FitError(f"stage {k} warm start: {DomainViolation(s)}", stage=k, iteration=0)
            for b in run.b[~inside].tolist()}


def threshold(W: np.ndarray, tau: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Zero out entries with absolute weight strictly below tau; ValueError unless tau >= 0 (NaN fails)."""
    if not tau >= 0:
        raise ValueError(f"need threshold >= 0; got {tau}")
    out = np.array(W, copy=True)
    out[np.abs(out) < tau] = 0.0
    return out


@dataclass
class FitResult:
    """Raw and thresholded W, the noise scale and per-stage counts of one fit.

    The sigma and sigmas views of scale remain only for perfbench/workloads.py.
    """

    W: np.ndarray
    W_thresholded: np.ndarray
    scale: float | np.ndarray | None = None  # a float (EV), a (d,) array (NV) or None
    iters_per_stage: list = field(default_factory=list)
    stalls: int = 0
    wall_time: float = 0.0

    @property
    def sigma(self) -> float | None:
        return self.scale if np.ndim(self.scale) == 0 else None

    @property
    def sigmas(self) -> np.ndarray | None:
        return self.scale if np.ndim(self.scale) == 1 else None


def fit(ds: Dataset, method: str = "colide_ev",
        schedule: StageSchedule | None = None,
        lam: float = DEFAULT_LAMBDA,
        lr: float = DEFAULT_LR,
        tau: float = DEFAULT_THRESHOLD) -> FitResult:
    """Run the full staged optimization and return raw + thresholded estimates.

    Initialization: W = 0 (always in-domain), scale = 100x its floor. Early
    stopping per stage when the relative change of the stage objective
    (evaluated after the scale update) drops below 1e-6. A stack of one
    (fit_stack); raises its FitError or DataError.

    The per-iteration early stop makes the iterates sensitive to the last bit
    of the arithmetic, so a change to the fit path keeps them bit-identical
    or re-runs acceptance criteria 6-8 and 10.
    """
    res = fit_stack([ds], method, schedule, lam, lr, tau)[0]
    if isinstance(res, Exception):
        raise res
    return res


def _check_settings(methods, lam, lr, tau) -> None:
    """Raise ValueError unless every method is known, lr in (0, inf), lambda in [0, inf) and tau >= 0 (NaN fails)."""
    if set(methods) - set(METHODS):
        raise ValueError(f"unknown method in {methods}; expected one of {METHODS}")
    if not (0 < lr < math.inf and 0 <= lam < math.inf and tau >= 0):
        raise ValueError(f"need lr > 0 and lambda >= 0, both finite, and threshold >= 0; got {lr}, {lam}, {tau}")


@dataclass
class _Slices:
    """A stack's state, one row per slice of every array; _setup builds one holding every dataset's.

    store keeps each dataset's row at P = cov (I - W) of its W, which the next stage starts from.
    """

    b: np.ndarray  # each slice's dataset index
    method: np.ndarray  # its index into METHODS
    n_scales: np.ndarray  # how many scales its fit reports: 0 (ls_baseline), 1 (colide_ev) or d (colide_nv)
    W: np.ndarray
    h: np.ndarray
    grad_h: np.ndarray
    X: np.ndarray  # inverses of sI - W*W at the stage's s, refreshed with W
    P: np.ndarray  # cov (I - W)
    m: np.ndarray  # ADAM moments
    v: np.ndarray
    cov: np.ndarray
    floor: np.ndarray  # (slices, d) rows, as scale
    scale: np.ndarray
    stalls: np.ndarray
    iters: np.ndarray  # (slices, stages) iteration counts

    def take(self, keep) -> "_Slices":
        return _Slices(**{name: a[keep] for name, a in vars(self).items()})

    def store(self, into: "_Slices", k: int, it: int) -> None:
        """Write W, P, scale, stalls and it iterations in stage k to each slice's dataset row of into."""
        into.W[self.b], into.P[self.b], into.scale[self.b] = self.W, self.P, self.scale
        into.stalls[self.b], into.iters[self.b, k] = self.stalls, it

    def result_scale(self, b: int):
        """Row b's scale as its fit reports it: None (ls_baseline), a float (colide_ev) or the (d,) row (colide_nv)."""
        return None if self.n_scales[b] == 0 else float(self.scale[b, 0]) if self.n_scales[b] == 1 else self.scale[b]


def _setup(datasets, methods, stages: int):
    """(fits, errors): each dataset's row at W = 0 for a fit of that many stages by its method, and the DataErrors.

    A floor is 1e-2 times the method's closed-form scale at W = 0, on diag C:
    sqrt(tr C / d) * 1e-2 (colide_ev) or sqrt(diag C) * 1e-2 (colide_nv). A
    fit starts at 100x its floor and reports 1, d or 0 scales (ls_baseline:
    a NaN floor and a scale frozen at 1). errors maps each unusable dataset
    to its DataError: a zero floor before an overflowing covariance or floor
    (a finite C can have an infinite trace, and so an infinite EV floor).
    Data with fewer than two variables is a DataError raised for the whole call.
    """
    if datasets[0].d < 2:
        raise DataError("need at least two variables")
    covs = np.stack([sample_cov(ds) for ds in datasets])
    diag, method = covs.diagonal(axis1=1, axis2=2), np.array([METHODS.index(m) for m in methods])
    floors, n_scales = np.full(diag.shape, np.nan), np.zeros(len(datasets), dtype=int)
    for i in dict.fromkeys(method.tolist()):
        scale_of, on = METHOD_CORES[METHODS[i]][1], method == i
        if scale_of:
            at_zero = scale_of(diag[on], np.zeros((np.count_nonzero(on), diag.shape[1])))
            floors[on], n_scales[on] = 1e-2 * at_zero, at_zero.shape[1]
    zero = (floors == 0).any(axis=1)
    errors = {b: DataError(("all-zero dataset" if n_scales[b] == 1 else "identically-zero variable")
                           + " has no usable noise floor") for b in np.flatnonzero(zero).tolist()}
    overflow = ~np.isfinite(covs).all(axis=(1, 2)) | np.isinf(floors).any(axis=1)  # ls_baseline's floor is NaN
    for b in np.flatnonzero(~zero & overflow).tolist():
        errors[b] = DataError("sample covariance overflows: data values too large")
    B, zeros = len(datasets), np.zeros(covs.shape)
    return _Slices(b=np.arange(B), method=method, n_scales=n_scales, W=zeros, h=np.zeros(B), grad_h=zeros.copy(),
                   X=zeros.copy(), P=covs.copy(), m=zeros.copy(), v=zeros.copy(), cov=covs, floor=floors,
                   scale=np.where(n_scales[:, None] == 0, 1.0, floors * 1e2), stalls=np.zeros(B, dtype=int),
                   iters=np.zeros((B, stages), dtype=int)), errors


def _blocks(run) -> list:
    """(score, scale, lo, hi): the score and scale cores of each run of one method in run's slices, on lo:hi."""
    blocks, lo = [], 0
    for i, slices in itertools.groupby(run.method.tolist()):
        hi = lo + len(list(slices))
        blocks.append((*METHOD_CORES[METHODS[i]], lo, hi))
        lo = hi
    return blocks


@np.errstate(over="ignore", invalid="ignore")  # an overflowing dataset is its slice's error
def fit_stack(datasets, method: str | list = "colide_ev",
              schedule: StageSchedule | None = None,
              lam: float = DEFAULT_LAMBDA,
              lr: float = DEFAULT_LR,
              tau: float = DEFAULT_THRESHOLD) -> list:
    """fit() of B datasets of one size as one (B, d, d) stack; a FitResult, FitError or DataError each.

    method is one method name for every dataset or a sequence of one name
    per dataset. The slices run ordered by method, so each method's score
    and scale cores run once per iteration on one contiguous block of the
    stack, and everything else once on the whole stack. Each slice keeps its
    own W, scale, ADAM moments, halvings, stall count, previous objective and
    iteration counts, so it takes exactly the iterates fit() takes on its
    dataset alone; every running slice starts a stage
    together, sharing ADAM's step count. A slice whose objective stops
    changing is stored back and sits out the rest of the stage. Each fault is
    its own slice's error while the others run on: data without a usable
    noise floor or whose covariance overflows give a DataError, and a warm
    start outside the domain, a non-finite objective or an overflowing ADAM
    second moment fit()'s FitError. The moment is checked when a slice leaves
    a stage (early stop, divergence or cap): once non-finite it stays so, and
    its updates are 0 or NaN.
    wall_time is the stack's over B.
    """
    methods = [method] * len(datasets) if isinstance(method, str) else list(method)
    _check_settings(methods, lam, lr, tau)
    if not datasets or len(methods) != len(datasets) or len({ds.d for ds in datasets}) != 1:
        raise ValueError("a stack needs one or more datasets of one size, and one method or one per dataset")
    schedule = schedule or default_schedule()
    start = time.perf_counter()

    fits, errors = _setup(datasets, methods, len(schedule.stages))
    order, eye = np.argsort(fits.method, kind="stable").tolist(), np.eye(datasets[0].d)

    for k, (mu, s, max_iters) in enumerate(schedule.stages):
        run = fits.take([b for b in order if b not in errors])
        errors.update(_stage_entry(run, s, k))
        run = run.take([j for j, b in enumerate(run.b.tolist()) if b not in errors])
        if not len(run.b):
            break
        blocks = _blocks(run)
        prev_obj = [math.nan] * len(run.b)  # NaN never settles
        for it in range(1, max_iters + 1):
            run.stalls[_guarded_step(run, it, mu, lam, lr, s)] += 1
            I_W = eye - run.W
            run.P = run.cov @ I_W  # this W's covariance product serves its cores and the next gradient
            diag, scores = residual_diag(I_W, run.P), []
            for score_of, scale_of, lo, hi in blocks:
                if scale_of:
                    run.scale[lo:hi] = scale_of(diag[lo:hi], run.floor[lo:hi])
                scores += score_of(diag[lo:hi], run.scale[lo:hi]).tolist()
            # each slice's objective and early-stop test on Python floats: the same
            # IEEE operations as (B,)-array calls, and cheaper for a grid's B
            obj = [mu * (score + lam * l1) + h_j for score, l1, h_j in zip(
                scores, np.abs(run.W).sum(axis=(1, 2)).tolist(), run.h.tolist())]
            leave = [j for j, o in enumerate(obj) if it == max_iters or not math.isfinite(o) or abs(
                o - prev_obj[j]) / max(abs(prev_obj[j]), 1e-12) < EARLY_STOP_RTOL]
            if leave:
                run.take(leave).store(fits, k, it)
                for j, b in zip(leave, run.b[leave].tolist()):
                    fault = ("objective diverged" if not math.isfinite(obj[j]) else
                             "gradient overflow" if not np.isfinite(run.v[j]).all() else None)
                    if fault:
                        errors[b] = FitError(f"{fault} (stage {k}, iteration {it})", k, it)
                keep = [j for j in range(len(obj)) if j not in leave]
                if not keep:
                    break
                run, obj = run.take(keep), [obj[j] for j in keep]
                blocks = _blocks(run)
            prev_obj = obj

    wall_time = (time.perf_counter() - start) / len(datasets)
    return [errors[b] if b in errors else FitResult(
        W=fits.W[b], W_thresholded=threshold(fits.W[b], tau), scale=fits.result_scale(b),
        iters_per_stage=fits.iters[b].tolist(), stalls=int(fits.stalls[b]), wall_time=wall_time,
    ) for b in range(len(datasets))]


# ---------------------------------------------------------------------------
# Online / mini-batch variant with running covariance and residual Gram diagonal.
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # an overflowing gradient is a FitError
def fit_online(ds: Dataset, batch_size: int, method: str = "colide_ev",
               schedule: StageSchedule | None = None,
               epochs_per_stage=None,
               lam: float = DEFAULT_LAMBDA,
               lr: float = DEFAULT_LR,
               snapshot_every: int = 1) -> list:
    """Mini-batch driver: re-stream the dataset in fixed batch order per epoch.

    Each update takes the batch fit's guarded step, on a stack of one, against
    the running mean of the stage's batch covariances at the previous scale;
    the new scale is the method's closed form of the running mean of each
    batch's residual Gram diagonal at the pre-update W. Both means are
    updated incrementally, m += (m_b - m) / (t + 1), so they stay within the
    range of the batches' values on a long stage. Each stage restarts the
    ADAM moments and both running means, carrying W and the scale forward like
    the batch driver's warm start. Returns the snapshots (stage, epoch, W copy,
    scale) taken at epoch ends; the last is the final state. Data without a
    usable noise floor or whose covariance overflows is a DataError; a warm
    start outside the domain or a gradient that overflows ADAM's second moment,
    a FitError.
    """
    _check_settings((method,), lam, lr, 0.0)
    scale_of = METHOD_CORES[method][1]
    if scale_of is None:
        raise ValueError(f"online fits need a method with a scale core; got {method!r}")
    if not (isinstance(batch_size, _COUNT) and 1 <= batch_size <= ds.n):
        raise ValueError("batch_size must be an integer in [1, n]")
    if not (isinstance(snapshot_every, _COUNT) and snapshot_every >= 1):
        raise ValueError("snapshot_every must be an integer of at least 1")
    schedule = schedule or default_schedule()
    batches = [ds.X[:, i:i + batch_size] for i in range(0, ds.n, batch_size)]
    if epochs_per_stage is None:
        epochs_per_stage = [math.ceil(t / len(batches)) for _, _, t in schedule.stages]
    if len(epochs_per_stage) != len(schedule.stages) or not all(isinstance(e, _COUNT) and e >= 1
                                                                for e in epochs_per_stage):
        raise ValueError(f"epochs_per_stage needs one integer entry >= 1 per stage; got {epochs_per_stage}")
    # a batch's X_b X_b^T is bounded entrywise by X X^T's diagonal, so the setup's overflow check covers every batch
    run, errors = _setup([ds], [method], len(schedule.stages))
    if errors:
        raise errors[0]
    snapshots, eye = [], np.eye(ds.d)
    for k, ((mu, s, _), epochs) in enumerate(zip(schedule.stages, epochs_per_stage)):
        failed = _stage_entry(run, s, k)
        if failed:
            raise failed[0]
        run.cov, diag, t = np.zeros_like(run.cov), np.zeros_like(run.floor), 0
        for epoch in range(epochs):
            for batch in batches:
                t, I_W = t + 1, eye - run.W
                cov_b = batch @ batch.T / batch.shape[1]
                run.cov += (cov_b - run.cov) / t  # running means that stay within the batches' range
                run.P = run.cov @ I_W
                _guarded_step(run, t, mu, lam, lr, s)
                if not np.isfinite(run.v).all():
                    raise FitError(f"gradient overflow (update {t})", k, t)
                diag += (residual_diag(I_W, cov_b @ I_W) - diag) / t
                run.scale = scale_of(diag, run.floor)
            if (epoch + 1) % snapshot_every == 0 or epoch == epochs - 1:
                snapshots.append((k, epoch, run.W[0].copy(), run.result_scale(0)))
    return snapshots
