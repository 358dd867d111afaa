"""Staged inexact block coordinate descent driver.

Each stage solves the dualized problem mu_k * score + h_ldet(W, s_k): one
ADAM step on W per inner iteration (with an l1 subgradient folded in and a
domain guard on the log-det term), followed by the closed-form scale update.
Stages warm-start W and the scale; ADAM moments reset at stage boundaries.

Per iteration without halvings: two factorisations of M = sI - W*W (inv for
the log-det gradient, unchecked because the guard already accepted W; the
guard's h_ldet slogdet, which checks the domain and gives h for the
objective) and three d x d matmuls (-cov (I - W) for the gradient; the Gram
matrix (I - W)^T cov (I - W), read by the scale update and the score). One
h_ldet per stage start checks the warm start and gives h until the first
accepted step.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .scores import (METHOD_CORES, DomainViolation, grad_h_ldet, grad_ldet, h_ldet,
                     residual_gram, sigma_floor_ev, sigma_floor_nv)
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
    "init_online",
    "online_update",
    "fit_online",
]

METHODS = tuple(METHOD_CORES)

DEFAULT_LAMBDA = 0.05
DEFAULT_LR = 3e-4
DEFAULT_THRESHOLD = 0.3
EARLY_STOP_RTOL = 1e-6


@dataclass(frozen=True)
class StageSchedule:
    """Ordered stages (mu, s, max_iters) with strictly decreasing mu."""

    stages: tuple

    def __post_init__(self):
        mus = [mu for mu, _, _ in self.stages]
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ValueError("mu must be strictly decreasing across stages")
        if any(s <= 0 or t < 1 for _, s, t in self.stages):
            raise ValueError("need s > 0 and max_iters >= 1")


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zero(cls, d: int, lr: float = DEFAULT_LR, **kw) -> "AdamState":
        return cls(m=np.zeros((d, d)), v=np.zeros((d, d)), lr=lr, **kw)


def adam_step(st: AdamState, grad: np.ndarray):
    """One bias-corrected ADAM step; returns (new state, additive update)."""
    t = st.t + 1
    m = st.beta1 * st.m + (1 - st.beta1) * grad
    v = st.beta2 * st.v + (1 - st.beta2) * grad * grad
    m_hat = m / (1 - st.beta1 ** t)
    v_hat = v / (1 - st.beta2 ** t)
    update = -st.lr * m_hat / (np.sqrt(v_hat) + st.eps)
    return replace(st, m=m, v=v, t=t), update


def domain_guard(W: np.ndarray, update: np.ndarray, s: float, max_halvings: int = 20):
    """Apply W + update, halving the update while it leaves the log-det domain.

    Returns (accepted W, stalled flag, h = h_ldet(W, s)), h from the accepted
    point's domain check. A stall keeps W unchanged after all halvings fail,
    with h = None; W itself is assumed in-domain on entry.
    """
    step = update
    for _ in range(max_halvings + 1):
        candidate = W + step
        try:
            return candidate, False, h_ldet(candidate, s)
        except DomainViolation:
            step = step / 2.0
    return W, True, None


def _guarded_step(grad_w, W, I_W, scale, neg_cov, grad_h, adam, mu, lam, s):
    """ADAM step on mu * (score + l1) + h at W (I_W = I - W, grad_h = dh/dW), then the guard."""
    grad = mu * (grad_w(neg_cov @ I_W, scale) + lam * np.sign(W)) + grad_h
    np.fill_diagonal(grad, 0.0)
    adam, update = adam_step(adam, grad)
    return (adam, *domain_guard(W, update, s))


def _stage_entry(W, s, k):
    """h_ldet at a stage's warm start; FitError when it leaves the domain."""
    try:
        return h_ldet(W, s)
    except DomainViolation as exc:
        raise FitError(f"stage {k} warm start: {exc}", stage=k, iteration=0) from exc


def threshold(W: np.ndarray, tau: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Zero out entries with absolute weight strictly below tau."""
    out = np.array(W, copy=True)
    out[np.abs(out) < tau] = 0.0
    return out


@dataclass
class FitResult:
    W: np.ndarray
    W_thresholded: np.ndarray
    method: str
    sigma: float | None = None
    sigmas: np.ndarray | None = None
    objective_trace: list = field(default_factory=list)
    iters_per_stage: list = field(default_factory=list)
    stalls: int = 0
    wall_time: float = 0.0

    @property
    def scale(self):
        return self.sigma if self.method == "colide_ev" else self.sigmas


class FitError(RuntimeError):
    def __init__(self, msg, stage=None, iteration=None):
        super().__init__(msg)
        self.stage = stage
        self.iteration = iteration


def fit(ds: Dataset, method: str = "colide_ev",
        schedule: StageSchedule | None = None,
        lam: float = DEFAULT_LAMBDA,
        lr: float = DEFAULT_LR,
        tau: float = DEFAULT_THRESHOLD,
        keep_trace: bool = False) -> FitResult:
    """Run the full staged optimization and return raw + thresholded estimates.

    Initialization: W = 0 (always in-domain), scale = 100x its floor. Early
    stopping per stage when the relative change of the stage objective
    (evaluated after the scale update) drops below 1e-6.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if ds.d < 2:
        raise DataError("need at least two variables")
    schedule = schedule or default_schedule()
    start = time.perf_counter()

    floor_of, grad_w, score_of, scale_of = METHOD_CORES[method]
    d = ds.d
    cov = sample_cov(ds)
    neg_cov = -cov
    eye = np.eye(d)
    W, I_W = np.zeros((d, d)), eye  # I_W = I - W; neither is modified in place
    floor = floor_of(ds) if floor_of else None
    scale = 1.0 if floor is None else floor * 1e2  # ls_baseline: sigma frozen

    trace, iters_per_stage, stalls = [], [], 0

    for k, (mu, s, max_iters) in enumerate(schedule.stages):
        h = _stage_entry(W, s, k)
        adam = AdamState.zero(d, lr=lr)
        prev_obj = None
        for it in range(1, max_iters + 1):
            adam, W, stalled, h_new = _guarded_step(
                grad_w, W, I_W, scale, neg_cov, grad_ldet(W, s), adam, mu, lam, s)
            stalls += stalled
            if not stalled:
                h, I_W = h_new, eye - W

            gram = residual_gram(I_W, cov)
            if scale_of:
                scale = scale_of(gram, floor)
            obj = mu * (score_of(gram, scale) + lam * np.abs(W).sum()) + h
            if not np.isfinite(obj):
                raise FitError(f"objective diverged (stage {k}, iteration {it})",
                               stage=k, iteration=it)
            if keep_trace:
                trace.append(obj)
            if prev_obj is not None:
                rel = abs(obj - prev_obj) / max(abs(prev_obj), 1e-12)
                if rel < EARLY_STOP_RTOL:
                    break
            prev_obj = obj
        iters_per_stage.append(it)

    return FitResult(
        W=W,
        W_thresholded=threshold(W, tau),
        method=method,
        sigma=float(scale) if method == "colide_ev" else None,
        sigmas=np.asarray(scale) if method == "colide_nv" else None,
        objective_trace=trace,
        iters_per_stage=iters_per_stage,
        stalls=stalls,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Online / mini-batch variant with running covariance and residual statistics.
# ---------------------------------------------------------------------------

@dataclass
class OnlineState:
    """Running state for the mini-batch variant.

    cov_running averages per-batch covariances; e accumulates residual
    sufficient statistics (scalar for EV, d-vector for NV).
    """

    W: np.ndarray
    cov_running: np.ndarray
    adam: AdamState
    e: float | np.ndarray
    t: int = 0
    sigma: float | None = None
    sigmas: np.ndarray | None = None
    floor: float | np.ndarray | None = None
    stalls: int = 0


def init_online(d: int, method: str = "colide_ev", floor=None,
                lr: float = DEFAULT_LR) -> OnlineState:
    if method not in ("colide_ev", "colide_nv"):
        raise ValueError("online updates support colide_ev and colide_nv")
    e = 0.0 if method == "colide_ev" else np.zeros(d)
    st = OnlineState(W=np.zeros((d, d)), cov_running=np.zeros((d, d)),
                     adam=AdamState.zero(d, lr=lr), e=e, floor=floor)
    # pre-data scale guess mirrors the batch initializer (100x the floor)
    if method == "colide_ev":
        st.sigma = float(floor) * 1e2 if floor is not None else 1.0
    else:
        st.sigmas = np.asarray(floor) * 1e2 if floor is not None else np.ones(d)
    return st


def online_update(st: OnlineState, batch: np.ndarray, method: str = "colide_ev",
                  lam: float = DEFAULT_LAMBDA, mu: float = 0.001,
                  s: float = 0.7) -> OnlineState:
    """Consume one d x n_b mini-batch: update covariance, W, and the scale.

    The residual statistic uses the pre-update W, then the scale estimate is
    sqrt(e_t / t) clamped at the floor (per node for NV). The first update
    (st.t == 0) raises DomainViolation when st.W is outside the log-det domain
    at s; later ones rely on the guard having kept it there, at the same s.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] < 1:
        raise ValueError("batch must be d x n_b with n_b >= 1")
    d, n_b = batch.shape
    t = st.t + 1
    cov = (st.cov_running * st.t + batch @ batch.T / n_b) / t

    # one first-order W step against the running covariance, previous scale
    ev = method == "colide_ev"
    grad_h = (grad_h_ldet if st.t == 0 else grad_ldet)(st.W, s)
    adam, W, stalled, _ = _guarded_step(METHOD_CORES[method][1], st.W, np.eye(d) - st.W,
                                        st.sigma if ev else st.sigmas, -cov, grad_h,
                                        st.adam, mu, lam, s)

    # residual sufficient statistic uses the pre-update W
    sq = (batch - st.W.T @ batch) ** 2
    e = st.e + (sq.sum() / (n_b * d) if ev else sq.sum(axis=1) / n_b)
    scale = np.sqrt(e / t)
    if st.floor is not None:
        scale = np.maximum(scale, st.floor)
    return OnlineState(W=W, cov_running=cov, adam=adam, e=e, t=t, floor=st.floor,
                       stalls=st.stalls + int(stalled),
                       sigma=float(scale) if ev else None,
                       sigmas=None if ev else np.asarray(scale))


def fit_online(ds: Dataset, batch_size: int, method: str = "colide_ev",
               schedule: StageSchedule | None = None,
               epochs_per_stage=None,
               lam: float = DEFAULT_LAMBDA,
               lr: float = DEFAULT_LR,
               snapshot_every: int = 1):
    """Mini-batch driver: re-stream the dataset in fixed batch order per epoch.

    Each stage restarts the ADAM moments and the residual sufficient
    statistic while carrying W and the running covariance forward, mirroring
    the batch driver's per-stage warm start. Returns (final state, snapshots),
    where snapshots records (stage, epoch, W copy, scale) at epoch ends.
    """
    if batch_size < 1 or batch_size > ds.n:
        raise ValueError("batch_size must be in [1, n]")
    schedule = schedule or default_schedule()
    n_batches = int(np.ceil(ds.n / batch_size))
    if epochs_per_stage is None:
        epochs_per_stage = [max(1, int(np.ceil(t / n_batches)))
                            for _, _, t in schedule.stages]
    if len(epochs_per_stage) != len(schedule.stages):
        raise ValueError("epochs_per_stage must match the stage count")

    floor = sigma_floor_ev(ds) if method == "colide_ev" else sigma_floor_nv(ds)
    st = init_online(ds.d, method=method, floor=floor, lr=lr)
    batches = [ds.X[:, i * batch_size:(i + 1) * batch_size]
               for i in range(n_batches)]
    snapshots = []
    for k, ((mu, s, _), epochs) in enumerate(zip(schedule.stages, epochs_per_stage)):
        # fresh ADAM moments and residual statistic per stage; W and the
        # running covariance warm-start the next stage
        _stage_entry(st.W, s, k)
        st.adam = AdamState.zero(ds.d, lr=lr)
        st.e = 0.0 if method == "colide_ev" else np.zeros(ds.d)
        st.t = 0
        for epoch in range(epochs):
            for batch in batches:
                st = online_update(st, batch, method=method, lam=lam, mu=mu, s=s)
            if (epoch + 1) % snapshot_every == 0 or epoch == epochs - 1:
                scale = st.sigma if method == "colide_ev" else np.array(st.sigmas)
                snapshots.append((k, epoch, st.W.copy(), scale))
    return st, snapshots
