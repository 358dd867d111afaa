"""Staged inexact block coordinate descent, run over a stack of fits.

Each stage solves the dualized problem mu_k * score + h_ldet(W, s_k): one
ADAM step on W per inner iteration (with an l1 subgradient folded in and a
domain guard on the log-det term), followed by the closed-form scale update.
Stages warm-start W and the scale; ADAM moments reset at stage boundaries.

fit_stack runs B datasets of one size and method as a (B, d, d) stack, each
slice on exactly the iterates a fit of its own would take; fit is a stack of
one. One _Slices object holds each slice's W, covariance, floor, scale and
stall count; a slice that leaves the stack is stored back to its dataset's
row. Per stack iteration without halvings: an inverse and a slogdet of the
guard's accepted M = sI - W*W (the inverse checks the domain s > rho(W*W)
per slice by positive row sums and gives the next log-det gradient; the
slogdet gives h for the objective), then three d x d matmuls (cov (I - W)
for the gradient; the Gram matrix (I - W)^T cov (I - W) for the scale and
the score). Every numpy call broadcasts over the slices, so the fixed cost
of the ~60 calls of an iteration, which dominates at d = 20, is paid once
per stack: at d = 20 an iteration took about 200 us for a stack of four
and 105 us for a stack of one (2-vCPU Xeon VM, one BLAS thread). A stage
start makes one inverse and one slogdet of the warm starts.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .scores import METHOD_CORES, grad_ldet, ldet_and_grad, residual_gram
from .sem import Dataset, sample_cov

__all__ = [
    "StageSchedule",
    "AdamState",
    "FitResult",
    "OnlineState",
    "FitError",
    "default_schedule",
    "adam_step",
    "domain_guard",
    "threshold",
    "fit",
    "fit_stack",
    "init_online",
    "online_update",
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
        if any(not (mu > 0 and s > 0) or t < 1 for mu, s, t in self.stages):
            raise ValueError("need mu > 0, s > 0 and max_iters >= 1")


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


def domain_guard(W: np.ndarray, update: np.ndarray, s: float):
    """Apply W + update to a (B, d, d) stack, halving a slice's update while it leaves the log-det domain.

    Returns (accepted W, stalled, h, grad_h): stalled holds the indices of
    the slices that kept their W because MAX_HALVINGS halvings all left the
    domain, and (h, grad_h) = ldet_and_grad of every other slice's accepted
    point, from the inverse that checked it (NaN for a stalled slice). W
    itself is assumed in-domain on entry.
    """
    candidate = W + update
    h, grad_h, faults = ldet_and_grad(candidate, s)
    if not faults:
        return candidate, _NO_SLICES, h, grad_h
    bad = np.array(sorted(faults))
    step = update[bad]
    for _ in range(MAX_HALVINGS):
        step = step / 2.0
        retry = W[bad] + step
        h_r, grad_r, faults = ldet_and_grad(retry, s)
        ok = np.ones(len(bad), dtype=bool)
        ok[list(faults)] = False
        candidate[bad[ok]], h[bad[ok]], grad_h[bad[ok]] = retry[ok], h_r[ok], grad_r[ok]
        bad, step = bad[~ok], step[~ok]
        if not len(bad):
            break
    candidate[bad], h[bad], grad_h[bad] = W[bad], np.nan, np.nan
    return candidate, bad, h, grad_h


def _guarded_step(grad_w, W, I_W, scale, cov, grad_h, adam, mu, lam, s):
    """ADAM step on mu * (score + l1) + h of each slice at W (I_W = I - W, grad_h = dh/dW), then the guard."""
    # grad_w is linear in -cov (I - W): its sign moves into the l1 sum exactly
    grad = mu * (lam * np.sign(W) - grad_w(cov @ I_W, scale)) + grad_h
    grad.reshape(len(grad), -1)[:, ::grad.shape[-1] + 1] = 0.0
    adam, update = adam_step(adam, grad)
    return (adam, *domain_guard(W, update, s))


def _stage_entry(W, s, k):
    """ldet_and_grad at a stage's warm starts, with a FitError for each slice outside the domain."""
    h, grad_h, faults = ldet_and_grad(W, s)
    return h, grad_h, {j: FitError(f"stage {k} warm start: {msg}", stage=k, iteration=0)
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
    changed the tau = 0.3 support of 7 of the 8. A change to the fit path
    must keep the iterates bit-identical or re-run acceptance criteria 6-8.
    """
    res = fit_stack([ds], method, schedule, lam, lr, tau)[0]
    if isinstance(res, Exception):
        raise res
    return res


def _check_settings(methods, lam, lr, tau) -> None:
    """Raise ValueError unless every method is known, lr > 0 and lambda, tau >= 0 (NaN fails)."""
    if set(methods) - set(METHODS):
        raise ValueError(f"unknown method in {methods}; expected one of {METHODS}")
    if not (lr > 0 and lam >= 0 and tau >= 0):
        raise ValueError(f"need lr > 0, lambda >= 0 and threshold >= 0; got {lr}, {lam}, {tau}")


@dataclass
class _Slices:
    """A stack's per-slice state, each array indexed first by slice; one instance holds every dataset's."""

    b: np.ndarray  # each slice's dataset index
    W: np.ndarray
    cov: np.ndarray
    floor: np.ndarray
    scale: np.ndarray
    stalls: np.ndarray
    iters: np.ndarray  # (slices, stages) iteration counts

    def take(self, keep) -> "_Slices":
        return _Slices(**{name: a[keep] for name, a in vars(self).items()})

    def store(self, into: "_Slices", k: int, it: int) -> None:
        """Write W, scale, stalls and it iterations in stage k to each slice's dataset row of into."""
        into.W[self.b], into.scale[self.b], into.stalls[self.b] = self.W, self.scale, self.stalls
        into.iters[self.b, k] = it


@np.errstate(over="ignore", invalid="ignore")  # an overflowing dataset is its slice's error
def fit_stack(datasets, method: str = "colide_ev",
              schedule: StageSchedule | None = None,
              lam: float = DEFAULT_LAMBDA,
              lr: float = DEFAULT_LR,
              tau: float = DEFAULT_THRESHOLD) -> list:
    """fit() of B datasets of one size as one (B, d, d) stack; a FitResult, FitError or DataError each.

    Each slice keeps its own W, scale, ADAM moments, halvings, stall count,
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
    _check_settings((method,), lam, lr, tau)
    if not datasets or len({ds.d for ds in datasets}) != 1:
        raise ValueError("a stack needs one or more datasets of one size")
    d = datasets[0].d
    if d < 2:
        raise DataError("need at least two variables")
    schedule = schedule or default_schedule()
    start = time.perf_counter()

    floor_of, grad_w, score_of, scale_of = METHOD_CORES[method]
    B = len(datasets)
    covs, floors, errors = [], [np.nan] * B, {}
    for b, ds in enumerate(datasets):
        covs.append(sample_cov(ds))
        try:
            floors[b] = floor_of(ds) if floor_of else np.nan
        except DataError as exc:  # no usable noise floor
            errors[b] = exc
        if not np.isfinite(covs[b]).all():
            errors.setdefault(b, DataError("sample covariance overflows: data values too large"))
    floors = np.array(np.broadcast_arrays(*floors))  # a NaN (no floor) takes the others' shape
    fits = _Slices(b=np.arange(B), W=np.zeros((B, d, d)), cov=np.stack(covs), floor=floors,
                   scale=floors * 1e2 if scale_of else np.ones(B),  # fixed for ls_baseline
                   stalls=np.zeros(B, dtype=int), iters=np.zeros((B, len(schedule.stages)), dtype=int))
    eye = np.eye(d)

    for k, (mu, s, max_iters) in enumerate(schedule.stages):
        live = [b for b in range(B) if b not in errors]
        if not live:
            break
        h, grad_h, failed = _stage_entry(fits.W[live], s, k)
        errors.update({live[j]: err for j, err in failed.items()})
        keep = [j for j in range(len(live)) if j not in failed]
        if not keep:
            continue
        run, h, grad_h = fits.take([live[j] for j in keep]), h[keep], grad_h[keep]
        I_W = eye - run.W
        adam, prev_obj = AdamState.zero(run.W.shape, lr=lr), [math.nan] * len(run.b)  # NaN never settles
        for it in range(1, max_iters + 1):
            adam, run.W, stalled, h_new, grad_new = _guarded_step(
                grad_w, run.W, I_W, run.scale, run.cov, grad_h, adam, mu, lam, s)
            if len(stalled):
                run.stalls[stalled] += 1
                h_new[stalled], grad_new[stalled] = h[stalled], grad_h[stalled]
            h, grad_h, I_W = h_new, grad_new, eye - run.W
            gram = residual_gram(I_W, run.cov)
            if scale_of:
                run.scale = scale_of(gram, run.floor)
            # each slice's objective and early-stop test on Python floats: the same
            # IEEE operations as (B,)-array calls, and cheaper for a grid's B
            obj = [mu * (score + lam * l1) + h_j for score, l1, h_j in zip(
                score_of(gram, run.scale).tolist(), np.abs(run.W).sum(axis=(1, 2)).tolist(), h.tolist())]
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
                run, h, grad_h, obj = run.take(keep), h[keep], grad_h[keep], [obj[j] for j in keep]
                I_W, adam = eye - run.W, AdamState(adam.m[keep], adam.v[keep], adam.t, lr)
            prev_obj = obj

    wall_time = (time.perf_counter() - start) / B
    return [errors[b] if b in errors else FitResult(
        W=fits.W[b], W_thresholded=threshold(fits.W[b], tau),
        scale=None if scale_of is None else float(fits.scale[b]) if fits.scale.ndim == 1 else fits.scale[b],
        iters_per_stage=fits.iters[b].tolist(), stalls=int(fits.stalls[b]), wall_time=wall_time,
    ) for b in range(B)]


# ---------------------------------------------------------------------------
# Online / mini-batch variant with running covariance and residual Gram matrix.
# ---------------------------------------------------------------------------

@dataclass
class OnlineState:
    """Running state for the mini-batch variant of a method with a scale core.

    cov_running and gram_running average C_b and residual_gram(I - W_prev, C_b)
    over the adam.t batches since the last reset; scale is the method's closed
    form of gram_running. The ADAM moments are a stack of one, the shape of
    the solver's step.
    """

    W: np.ndarray
    cov_running: np.ndarray
    gram_running: np.ndarray
    adam: AdamState
    method: str
    floor: float | np.ndarray
    scale: float | np.ndarray
    stalls: int = 0


def init_online(d: int, method: str, floor=None, lr: float = DEFAULT_LR) -> OnlineState:
    """Zero state with the scale at 100x its floor, like the batch initializer."""
    if METHOD_CORES.get(method, (None,) * 4)[3] is None or floor is None:
        raise ValueError(f"online updates need a scale core and floor; got {method!r}, {floor!r}")
    return OnlineState(W=np.zeros((d, d)), cov_running=np.zeros((d, d)),
                       gram_running=np.zeros((d, d)),
                       adam=AdamState.zero((1, d, d), lr=lr), method=method, floor=floor,
                       scale=floor * 1e2)


def online_update(st: OnlineState, batch: np.ndarray, lam: float = DEFAULT_LAMBDA,
                  mu: float = 0.001, s: float = 0.7) -> OnlineState:
    """Consume one d x n_b mini-batch: update covariance, W, and the scale.

    W takes one guarded step against the running covariance at the previous
    scale. The residual Gram matrix uses the pre-update W; the new scale is
    the batch fit's closed form of its running mean. Raises DomainViolation
    when st.W is outside the log-det domain at s; the inverse that checks it
    gives the log-det gradient. The step is the batch fit's, on a stack of one.
    A batch not d x n_b is a ValueError; one whose covariance is NaN or overflows, a DataError.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] != len(st.W) or batch.shape[1] < 1:
        raise ValueError(f"batch must be d x n_b with d = {len(st.W)} and n_b >= 1; got {batch.shape}")
    d, n_b = batch.shape
    _, grad_w, _, scale_of = METHOD_CORES[st.method]
    t = st.adam.t
    with np.errstate(over="ignore", invalid="ignore"):
        cov_b = batch @ batch.T / n_b
    if not np.isfinite(cov_b).all():
        raise DataError("batch covariance is not finite: data values NaN or too large")
    cov = (st.cov_running * t + cov_b) / (t + 1)
    I_W = np.eye(d) - st.W
    adam, W, stalled, _, _ = _guarded_step(grad_w, st.W[None], I_W[None], np.asarray(st.scale)[None],
                                           cov[None], grad_ldet(st.W, s)[None], st.adam, mu, lam, s)
    gram = (st.gram_running * t + residual_gram(I_W[None], cov_b[None])[0]) / (t + 1)
    scale = scale_of(gram[None], np.asarray(st.floor, dtype=float)[None])[0]
    return replace(st, W=W[0], cov_running=cov, gram_running=gram, adam=adam,
                   stalls=st.stalls + len(stalled), scale=scale)


def fit_online(ds: Dataset, batch_size: int, method: str = "colide_ev",
               schedule: StageSchedule | None = None,
               epochs_per_stage=None,
               lam: float = DEFAULT_LAMBDA,
               lr: float = DEFAULT_LR,
               snapshot_every: int = 1):
    """Mini-batch driver: re-stream the dataset in fixed batch order per epoch.

    Each stage restarts the ADAM moments and both running means (covariance
    and residual Gram matrix), carrying W and the scale forward like the batch
    driver's warm start. Returns (final state, snapshots), where snapshots
    records (stage, epoch, W copy, scale) at epoch ends.
    """
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

    floor_of = METHOD_CORES.get(method, (None,))[0]
    st = init_online(ds.d, method, floor_of(ds) if floor_of else None, lr)
    snapshots = []
    for k, ((mu, s, _), epochs) in enumerate(zip(schedule.stages, epochs_per_stage)):
        failed = _stage_entry(st.W[None], s, k)[2]
        if failed:
            raise failed[0]
        st = replace(st, adam=AdamState.zero((1, ds.d, ds.d), lr=lr))
        for epoch in range(epochs):
            for batch in batches:
                st = online_update(st, batch, lam=lam, mu=mu, s=s)
            if (epoch + 1) % snapshot_every == 0 or epoch == epochs - 1:
                snapshots.append((k, epoch, st.W.copy(), st.scale))
    return st, snapshots
