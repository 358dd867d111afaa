"""Staged inexact block coordinate descent driver.

Each stage solves the dualized problem mu_k * score + h_ldet(W, s_k): one
ADAM step on W per inner iteration (with an l1 subgradient folded in and a
domain guard on the log-det term), followed by the closed-form scale update.
Stages warm-start W and the scale; ADAM moments reset at stage boundaries.

Per iteration without halvings: two factorisations of M = sI - W*W, both of
the guard's accepted candidate. Its inverse checks the domain s > rho(W*W)
(positive row sums) and gives the log-det gradient for the next step; its
slogdet gives h for the objective. Then three d x d matmuls (-cov (I - W) for
the gradient; the Gram matrix (I - W)^T cov (I - W), read by the scale update
and the score). Each stage start makes one inverse and one slogdet of its warm
start, which check it and give h and the gradient until the first accepted
step; a stall keeps both.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .scores import METHOD_CORES, DomainViolation, grad_ldet, ldet_and_grad, residual_gram
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
MAX_HALVINGS = 20
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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

    @classmethod
    def zero(cls, d: int, lr: float = DEFAULT_LR) -> "AdamState":
        return cls(m=np.zeros((d, d)), v=np.zeros((d, d)), lr=lr)


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
    """Apply W + update, halving the update while it leaves the log-det domain.

    Returns (accepted W, stalled flag, h, grad_h), where (h, grad_h) =
    ldet_and_grad(W, s) comes from the inverse that checked the accepted point.
    A stall keeps W unchanged after MAX_HALVINGS halvings fail, with h = grad_h = None;
    W itself is assumed in-domain on entry.
    """
    step = update
    for _ in range(MAX_HALVINGS + 1):
        candidate = W + step
        try:
            return (candidate, False, *ldet_and_grad(candidate, s))
        except DomainViolation:
            step = step / 2.0
    return W, True, None, None


def _guarded_step(grad_w, W, I_W, scale, neg_cov, grad_h, adam, mu, lam, s):
    """ADAM step on mu * (score + l1) + h at W (I_W = I - W, grad_h = dh/dW), then the guard."""
    grad = mu * (grad_w(neg_cov @ I_W, scale) + lam * np.sign(W)) + grad_h
    np.fill_diagonal(grad, 0.0)
    adam, update = adam_step(adam, grad)
    return (adam, *domain_guard(W, update, s))


def _stage_entry(W, s, k):
    """ldet_and_grad at a stage's warm start; FitError when it leaves the domain."""
    try:
        return ldet_and_grad(W, s)
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
        tau: float = DEFAULT_THRESHOLD) -> FitResult:
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

    iters_per_stage, stalls = [], 0

    for k, (mu, s, max_iters) in enumerate(schedule.stages):
        h, grad_h = _stage_entry(W, s, k)
        adam = AdamState.zero(d, lr=lr)
        prev_obj = None
        for it in range(1, max_iters + 1):
            adam, W, stalled, h_new, grad_new = _guarded_step(
                grad_w, W, I_W, scale, neg_cov, grad_h, adam, mu, lam, s)
            stalls += stalled
            if not stalled:
                h, grad_h, I_W = h_new, grad_new, eye - W

            gram = residual_gram(I_W, cov)
            if scale_of:
                scale = scale_of(gram, floor)
            obj = mu * (score_of(gram, scale) + lam * np.abs(W).sum()) + h
            if not np.isfinite(obj):
                raise FitError(f"objective diverged (stage {k}, iteration {it})",
                               stage=k, iteration=it)
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
        iters_per_stage=iters_per_stage,
        stalls=stalls,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Online / mini-batch variant with running covariance and residual Gram matrix.
# ---------------------------------------------------------------------------

@dataclass
class OnlineState:
    """Running state for the mini-batch variant of a method with a scale core.

    cov_running and gram_running average C_b and residual_gram(I - W_prev, C_b)
    over the adam.t batches since the last reset; scale is the method's closed
    form of gram_running.
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
                       adam=AdamState.zero(d, lr=lr), method=method, floor=floor,
                       scale=floor * 1e2)


def online_update(st: OnlineState, batch: np.ndarray, lam: float = DEFAULT_LAMBDA,
                  mu: float = 0.001, s: float = 0.7) -> OnlineState:
    """Consume one d x n_b mini-batch: update covariance, W, and the scale.

    W takes one guarded step against the running covariance at the previous
    scale. The residual Gram matrix uses the pre-update W; the new scale is
    the batch fit's closed form of its running mean. Raises DomainViolation
    when st.W is outside the log-det domain at s; the inverse that checks it
    gives the log-det gradient.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] < 1:
        raise ValueError("batch must be d x n_b with n_b >= 1")
    d, n_b = batch.shape
    _, grad_w, _, scale_of = METHOD_CORES[st.method]
    t = st.adam.t
    cov_b = batch @ batch.T / n_b
    cov = (st.cov_running * t + cov_b) / (t + 1)
    I_W = np.eye(d) - st.W
    adam, W, stalled, _, _ = _guarded_step(grad_w, st.W, I_W, st.scale, -cov,
                                           grad_ldet(st.W, s), st.adam, mu, lam, s)
    gram = (st.gram_running * t + residual_gram(I_W, cov_b)) / (t + 1)
    return replace(st, W=W, cov_running=cov, gram_running=gram, adam=adam,
                   stalls=st.stalls + stalled, scale=scale_of(gram, st.floor))


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
    schedule = schedule or default_schedule()
    batches = [ds.X[:, i:i + batch_size] for i in range(0, ds.n, batch_size)]
    if epochs_per_stage is None:
        epochs_per_stage = [max(1, int(np.ceil(t / len(batches))))
                            for _, _, t in schedule.stages]
    if len(epochs_per_stage) != len(schedule.stages):
        raise ValueError("epochs_per_stage must match the stage count")

    floor_of = METHOD_CORES.get(method, (None,))[0]
    st = init_online(ds.d, method, floor_of(ds) if floor_of else None, lr)
    snapshots = []
    for k, ((mu, s, _), epochs) in enumerate(zip(schedule.stages, epochs_per_stage)):
        _stage_entry(st.W, s, k)
        st = replace(st, adam=AdamState.zero(ds.d, lr=lr))
        for epoch in range(epochs):
            for batch in batches:
                st = online_update(st, batch, lam=lam, mu=mu, s=s)
            if (epoch + 1) % snapshot_every == 0 or epoch == epochs - 1:
                snapshots.append((k, epoch, st.W.copy(), st.scale))
    return st, snapshots
