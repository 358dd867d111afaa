"""Staged inexact block coordinate descent, run over a stack of fits.

Each stage solves the dualized problem mu_k * score + h_ldet(W, s_k): one
ADAM step on W per inner iteration (with an l1 subgradient folded in and a
domain guard on the log-det term), followed by the closed-form scale update.
Stages warm-start W and the scale; ADAM moments reset at stage boundaries.

fit_stack runs B datasets of one size as a (B, d, d) stack, each slice on
exactly the iterates a fit of its own would take; fit is a stack of one.
fit_stack and fit_online share one data setup (_setup) and one guarded step,
whose guard hands a stalled slice back whole. A stack may span methods: its
slices run ordered by method, each method's score and scale cores run on its
contiguous block, and everything else runs once on the whole stack. One
_Slices object holds each slice's W, inverse X of M = sI - W*W, covariance,
floor, scale and stall count; a slice that leaves the stack is stored back
to its dataset's row. Per stack iteration without halvings:
- one slogdet of the guard's accepted M, for h in the objective;
- two Newton-Schulz steps (four d x d matmuls) that refresh the previous
  iterate's X to M^{-1}, and a residual and Collatz-Wielandt test that
  certifies the domain s > rho(W*W) (scores._newton_schulz); X gives the
  next log-det gradient. A slice the test does not certify falls back to an
  LU inverse, whose positive row sums decide the domain;
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

from .errors import DataError
from .scores import METHOD_CORES, ldet_and_grad, residual_diag
from .sem import Dataset, sample_cov

__all__ = [
    "StageSchedule",
    "AdamState",
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
_NO_SLICES = np.zeros(0, dtype=int)


@dataclass(frozen=True)
class StageSchedule:
    """Ordered stages (mu, s, max_iters) with strictly decreasing mu."""

    stages: tuple

    def __post_init__(self):
        mus = [mu for mu, _, _ in self.stages]
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ValueError("mu must be strictly decreasing across stages")
        if any(not (0 < mu < math.inf and 0 < s < math.inf) or t < 1 for mu, s, t in self.stages):
            raise ValueError("need finite mu > 0 and s > 0 and max_iters >= 1")


def default_schedule() -> StageSchedule:
    """Four stages: mu 1 -> 0.001, s 1 -> 0.7, iteration caps 2e4/2e4/2e4/7e4."""
    return StageSchedule(stages=(
        (1.0, 1.0, 20000),
        (0.1, 0.9, 20000),
        (0.01, 0.8, 20000),
        (0.001, 0.7, 70000),
    ))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = DEFAULT_LR

    @classmethod
    def zero(cls, shape, lr: float = DEFAULT_LR) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), lr=lr)


def adam_step(st: AdamState, grad: np.ndarray):
    """One bias-corrected ADAM step; returns (new state, additive update)."""
    t = st.t + 1
    m = ADAM_BETA1 * st.m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * st.v + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    update = -st.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m, v, t, st.lr), update


def domain_guard(W: np.ndarray, update: np.ndarray, s: float, X: np.ndarray, h: np.ndarray, grad_h: np.ndarray):
    """Apply W + update to a (B, d, d) stack, halving a slice's update while it leaves the log-det domain.

    Returns (accepted W, stalled, h, grad_h, X): stalled holds the indices of
    the slices that kept their W because MAX_HALVINGS halvings all left the
    domain, and (h, grad_h, X) = ldet_and_grad of every other slice's
    accepted point, from the inverse that checked it. A stalled slice comes
    back whole: its own W, h, grad_h and X, the entries passed in. X holds
    inverses of sI - W*W at W: the full step refreshes them by Newton-Schulz
    steps, and the halvings invert afresh. W itself is assumed in-domain on
    entry.
    """
    candidate = W + update
    h_new, grad_new, X_new, faults = ldet_and_grad(candidate, s, X)
    if not faults:
        return candidate, _NO_SLICES, h_new, grad_new, X_new
    bad = np.array(sorted(faults))
    step = update[bad]
    for _ in range(MAX_HALVINGS):
        step = step / 2.0
        retry = W[bad] + step
        h_r, grad_r, X_r, faults = ldet_and_grad(retry, s)
        ok = np.ones(len(bad), dtype=bool)
        ok[list(faults)] = False
        candidate[bad[ok]], h_new[bad[ok]], grad_new[bad[ok]], X_new[bad[ok]] = retry[ok], h_r[ok], grad_r[ok], X_r[ok]
        bad, step = bad[~ok], step[~ok]
        if not len(bad):
            break
    candidate[bad], h_new[bad], grad_new[bad], X_new[bad] = W[bad], h[bad], grad_h[bad], X[bad]
    return candidate, bad, h_new, grad_new, X_new


def _guarded_step(W, P, scale, h, grad_h, X, adam, mu, lam, s):
    """ADAM step on mu * (score + l1) + h of each slice at W (P = cov (I - W), grad_h = dh/dW), then the guard."""
    # the smooth-part gradient -P / scale: its sign moves into the l1 sum exactly
    grad = mu * (lam * np.sign(W) - P / scale[:, None, :]) + grad_h
    grad.reshape(len(grad), -1)[:, ::grad.shape[-1] + 1] = 0.0
    adam, update = adam_step(adam, grad)
    return (adam, *domain_guard(W, update, s, X, h, grad_h))


def _stage_entry(W, s, k):
    """ldet_and_grad at a stage's warm starts, with a FitError for each slice outside the domain."""
    h, grad_h, X, faults = ldet_and_grad(W, s)
    return h, grad_h, X, {j: FitError(f"stage {k} warm start: {msg}", stage=k, iteration=0)
                          for j, msg in faults.items()}


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


class FitError(RuntimeError):
    def __init__(self, msg, stage=None, iteration=None):
        super().__init__(msg)
        self.stage, self.iteration = stage, iteration


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
    of the arithmetic: summing the residual Gram diagonal elementwise instead
    of taking it from the matmul moved W by max |dW| 0.012-0.124 on ER d = 50,
    k = 4, n = 1000 fits (EV and NV, instances 0-1 of master seeds 0-1) and
    changed the tau = 0.3 support of 7 of the 8. The iterates changed last
    when that diagonal came to be read from cov (I - W) and the log-det
    inverse to be refreshed by Newton-Schulz steps: max |dW| 0.017-0.094 on
    the same fits; and when the colide_ev floor became sqrt(tr C / d) * 1e-2,
    ||X||_F / sqrt(d n) * 1e-2 but for the last bit: max |dW| 0.005-0.128 on
    the EV fits, the NV and ls_baseline fits bit-identical. Criteria 6-8 and
    10 were re-run on the new iterates; CHANGES.md records their values. A
    change to the fit path must keep the iterates bit-identical or re-run
    those criteria.
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
    """A stack's per-slice state, each array indexed first by slice; one instance holds every dataset's."""

    b: np.ndarray  # each slice's dataset index
    W: np.ndarray
    X: np.ndarray  # inverses of sI - W*W at the stage's s, refreshed with W
    cov: np.ndarray
    floor: np.ndarray  # (slices, d) rows, as scale
    scale: np.ndarray
    stalls: np.ndarray
    iters: np.ndarray  # (slices, stages) iteration counts

    def take(self, keep) -> "_Slices":
        return _Slices(**{name: a[keep] for name, a in vars(self).items()})

    def store(self, into: "_Slices", k: int, it: int) -> None:
        """Write W, scale, stalls and it iterations in stage k to each slice's dataset row of into."""
        into.W[self.b], into.scale[self.b], into.stalls[self.b] = self.W, self.scale, self.stalls
        into.iters[self.b, k] = it


def _setup(datasets, methods):
    """Stacked (covariances, floor rows, starting scale rows, number of scales, DataErrors) of fits by methods.

    A floor is 1e-2 times the method's closed-form scale at W = 0, on diag C:
    sqrt(tr C / d) * 1e-2 (colide_ev) or sqrt(diag C) * 1e-2 (colide_nv). A
    fit starts at 100x its floor and reports 1, d or 0 scales (ls_baseline:
    a NaN floor and a scale frozen at 1). errors maps each unusable dataset
    to its DataError: a zero floor before an overflowing covariance.
    """
    covs = np.stack([sample_cov(ds) for ds in datasets])
    diag = covs.diagonal(axis1=1, axis2=2)
    floors, n_scales = np.full(diag.shape, np.nan), np.zeros(len(datasets), dtype=int)
    for method in dict.fromkeys(methods):
        scale_of, on = METHOD_CORES[method][1], [b for b, m in enumerate(methods) if m == method]
        if scale_of:
            at_zero = scale_of(diag[on], np.zeros((len(on), diag.shape[1])))
            floors[on], n_scales[on] = 1e-2 * at_zero, at_zero.shape[1]
    zero = (floors == 0).any(axis=1)
    errors = {b: DataError(("all-zero dataset" if n_scales[b] == 1 else "identically-zero variable")
                           + " has no usable noise floor") for b in np.flatnonzero(zero).tolist()}
    for b in np.flatnonzero(~zero & ~np.isfinite(covs).all(axis=(1, 2))).tolist():
        errors[b] = DataError("sample covariance overflows: data values too large")
    return covs, floors, np.where(n_scales[:, None] == 0, 1.0, floors * 1e2), n_scales, errors


def _result_scale(row, n_scales):
    """A fit's scale from its (d,) scale row: None (ls_baseline), a float (colide_ev) or the row (colide_nv)."""
    return None if n_scales == 0 else float(row[0]) if n_scales == 1 else row


def _blocks(methods) -> list:
    """(score, scale, lo, hi): the score and scale cores of each run of one name in methods, on slices lo:hi."""
    blocks, lo = [], 0
    for method, names in itertools.groupby(methods):
        hi = lo + len(list(names))
        blocks.append((*METHOD_CORES[method], lo, hi))
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
    own W, scale, ADAM moments, halvings, stall count,
    previous objective and iteration counts, so it takes exactly the iterates
    fit() takes on its dataset alone; every running slice starts a stage
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
    d = datasets[0].d
    if d < 2:
        raise DataError("need at least two variables")
    schedule = schedule or default_schedule()
    start = time.perf_counter()

    B = len(datasets)
    covs, floors, scales, n_scales, errors = _setup(datasets, methods)
    fits = _Slices(b=np.arange(B), W=np.zeros((B, d, d)), X=np.zeros((B, d, d)), cov=covs, floor=floors,
                   scale=scales, stalls=np.zeros(B, dtype=int), iters=np.zeros((B, len(schedule.stages)), dtype=int))
    order = sorted(range(B), key=lambda b: METHODS.index(methods[b]))
    eye = np.eye(d)

    for k, (mu, s, max_iters) in enumerate(schedule.stages):
        live = [b for b in order if b not in errors]
        if not live:
            break
        h, grad_h, fits.X[live], failed = _stage_entry(fits.W[live], s, k)
        errors.update({live[j]: err for j, err in failed.items()})
        keep = [j for j in range(len(live)) if j not in failed]
        if not keep:
            continue
        run, h, grad_h = fits.take([live[j] for j in keep]), h[keep], grad_h[keep]
        blocks, P = _blocks(methods[b] for b in run.b.tolist()), run.cov @ (eye - run.W)
        adam, prev_obj = AdamState.zero(run.W.shape, lr=lr), [math.nan] * len(run.b)  # NaN never settles
        for it in range(1, max_iters + 1):
            adam, run.W, stalled, h, grad_h, run.X = _guarded_step(
                run.W, P, run.scale, h, grad_h, run.X, adam, mu, lam, s)
            run.stalls[stalled] += 1
            I_W = eye - run.W
            P = run.cov @ I_W  # this W's covariance product serves its cores and the next gradient
            diag, scores = residual_diag(I_W, P), []
            for score_of, scale_of, lo, hi in blocks:
                if scale_of:
                    run.scale[lo:hi] = scale_of(diag[lo:hi], run.floor[lo:hi])
                scores += score_of(diag[lo:hi], run.scale[lo:hi]).tolist()
            # each slice's objective and early-stop test on Python floats: the same
            # IEEE operations as (B,)-array calls, and cheaper for a grid's B
            obj = [mu * (score + lam * l1) + h_j for score, l1, h_j in zip(
                scores, np.abs(run.W).sum(axis=(1, 2)).tolist(), h.tolist())]
            leave = [j for j, o in enumerate(obj) if it == max_iters or not math.isfinite(o) or abs(
                o - prev_obj[j]) / max(abs(prev_obj[j]), 1e-12) < EARLY_STOP_RTOL]
            if leave:
                run.take(leave).store(fits, k, it)
                for j, b in zip(leave, run.b[leave].tolist()):
                    fault = ("objective diverged" if not math.isfinite(obj[j]) else
                             "gradient overflow" if not np.isfinite(adam.v[j]).all() else None)
                    if fault:
                        errors[b] = FitError(f"{fault} (stage {k}, iteration {it})", k, it)
                keep = [j for j in range(len(obj)) if j not in leave]
                if not keep:
                    break
                run, h, grad_h, P, obj = run.take(keep), h[keep], grad_h[keep], P[keep], [obj[j] for j in keep]
                adam = AdamState(adam.m[keep], adam.v[keep], adam.t, lr)
                blocks = _blocks(methods[b] for b in run.b.tolist())
            prev_obj = obj

    wall_time = (time.perf_counter() - start) / B
    return [errors[b] if b in errors else FitResult(
        W=fits.W[b], W_thresholded=threshold(fits.W[b], tau),
        scale=_result_scale(fits.scale[b], n_scales[b]),
        iters_per_stage=fits.iters[b].tolist(), stalls=int(fits.stalls[b]), wall_time=wall_time,
    ) for b in range(B)]


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
    if batch_size < 1 or batch_size > ds.n:
        raise ValueError("batch_size must be in [1, n]")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be at least 1")
    schedule = schedule or default_schedule()
    batches = [ds.X[:, i:i + batch_size] for i in range(0, ds.n, batch_size)]
    if epochs_per_stage is None:
        epochs_per_stage = [math.ceil(t / len(batches)) for _, _, t in schedule.stages]
    if len(epochs_per_stage) != len(schedule.stages) or any(e < 1 for e in epochs_per_stage):
        raise ValueError(f"epochs_per_stage needs one entry >= 1 per stage; got {epochs_per_stage}")
    # a batch's X_b X_b^T is bounded entrywise by X X^T's diagonal, so the setup's overflow check covers every batch
    _, floor, scale, (n_scales,), errors = _setup([ds], [method])
    if errors:
        raise errors[0]
    W, eye = np.zeros((1, ds.d, ds.d)), np.eye(ds.d)
    snapshots = []
    for k, ((mu, s, _), epochs) in enumerate(zip(schedule.stages, epochs_per_stage)):
        h, grad_h, X, failed = _stage_entry(W, s, k)
        if failed:
            raise failed[0]
        adam, cov, diag = AdamState.zero(W.shape, lr=lr), np.zeros_like(W), np.zeros_like(floor)
        for epoch in range(epochs):
            for batch in batches:
                t, I_W = adam.t, eye - W
                cov_b = batch @ batch.T / batch.shape[1]
                cov += (cov_b - cov) / (t + 1)  # running means that stay within the batches' range
                adam, W, _, h, grad_h, X = _guarded_step(W, cov @ I_W, scale, h, grad_h, X, adam, mu, lam, s)
                if not np.isfinite(adam.v).all():
                    raise FitError(f"gradient overflow (update {adam.t})", k, adam.t)
                diag += (residual_diag(I_W, cov_b @ I_W) - diag) / (t + 1)
                scale = scale_of(diag, floor)
            if (epoch + 1) % snapshot_every == 0 or epoch == epochs - 1:
                snapshots.append((k, epoch, W[0].copy(), _result_scale(scale[0], n_scales)))
    return snapshots
