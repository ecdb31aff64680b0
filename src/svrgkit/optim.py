"""Optimization algorithms for finite-sum objectives.

Implements plain gradient descent, mini-batch SGD with constant/polynomial/
AdaGrad learning rates, and two variance-reduced runners over one epoch
loop, which differ only in the epoch plan drawn at epoch start:

* :func:`svrg_simple_run` - each epoch's snapshot and starting point is
  the previous epoch's last iterate; the returned point is drawn uniformly
  from all post-update iterates x_1 .. x_m.
* :func:`svrg_full_run` - additionally draws a weighted stopping index
  m_s in {m-m0+1..m} for each epoch (weights built from the geometric
  sub-epoch coefficients), restarts the next epoch from that iterate, and
  returns a uniform draw from the union of all eligible iterates
  {x_0..x_{m_s-1}} across epochs.

Per-epoch RNG consumption order is fixed: the component indices, then the
plan's draws (svrg1: m reservoir uniforms; svrg2: the uniforms of x_0 ..
x_{m-m0}, the stopping draw, the uniforms of the late iterates), so a run
is a pure function of (objective, config, seed).  The inner loop draws
nothing; iterates join a size-1 reservoir as they are produced and only
x_{m_s} is copied for the restart.  A run thus holds a fixed number of
d-vectors whatever m and m0 are (``record_iterates`` aside), and the inner
step writes its estimate into one reused buffer.  sgd and the runners
apply the rate through one step rule.

Pass accounting follows the stored-snapshot convention: a snapshot costs 1
pass and an inner iteration with batch b costs b/n passes when reference
gradients are reconstructed from cached residuals, or 2b/n when they are
recomputed.  SVRG's exact evaluations are its snapshots and its final
point; sgd's checkpoints cost one pass each.  Every exact evaluation (gd
step, sgd checkpoint, SVRG snapshot, target-meeting probe, final point)
goes through one run ledger that charges it, checks it for divergence and
against ``target_grad_sq``, and logs its trace row.  A run whose
evaluation meets the target stops there and returns the evaluated point.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import RandomSource, sq_norm
from .dataio import TraceRecord
from .objectives import FiniteSumObjective, SnapshotCache

log = logging.getLogger(__name__)

# Objective blow-up factor treated as divergence.
_DIVERGE_FACTOR = 1e12
# Iterations between cheap non-finite guards inside hot loops.
_GUARD_STRIDE = 256


class DivergenceError(RuntimeError):
    """A run produced a non-finite or exploding objective/iterate."""


# ---------------------------------------------------------------------------
# schedules and learning rates
# ---------------------------------------------------------------------------


def beta_weights(m0: int) -> np.ndarray:
    """Geometric sub-epoch weights [1, r^-1, ..., r^-(m0-1)], r = 1 + 1/m0.

    Every entry lies in [1/e, 1].
    """
    if m0 < 1:
        raise ValueError(f"need m0 >= 1, got {m0}")
    if m0 == 1:
        return np.ones(1)
    # cumprod of the constant ratio; error stays ~m0*eps, far inside the
    # tolerances used anywhere downstream, and is ~5x faster than power().
    out = np.empty(m0)
    out[0] = 1.0
    out[1:] = np.cumprod(np.full(m0 - 1, 1.0 / (1.0 + 1.0 / m0)))
    return out


def epoch_end_weights(m0: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw weights and probabilities for the epoch-end stopping draw.

    With betas = beta_weights(m0), entry j corresponds to stopping at
    iterate m - j: weight for j=0 is betas[m0-1]; for j >= 1 it is
    (10/9) * (betas[m0-j] + ... + betas[m0-1]).
    """
    betas = beta_weights(m0)
    weights = np.empty(m0)
    weights[0] = betas[m0 - 1]
    # cumsum of the reversed betas: entry j-1 is the sum of the last j
    weights[1:] = (10.0 / 9.0) * np.cumsum(betas[::-1])[: m0 - 1]
    return weights, weights / weights.sum()


@dataclass
class SvrgSchedule:
    """Epoch geometry of the variance-reduced runners: d_sub = m/m0
    sub-epochs per epoch, and the stopping-draw probabilities
    ``end_probs`` of :func:`epoch_end_weights`.  The step is the runner's
    rate; :func:`theory_step` gives the paper's."""

    m: int
    m0: int
    theory_ok: bool
    d_sub: int = field(init=False)
    end_probs: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.m < 1 or self.m0 < 1:
            raise ValueError("m and m0 must be >= 1")
        if self.m % self.m0:
            raise ValueError(f"m0={self.m0} does not divide m={self.m}")
        self.d_sub = self.m // self.m0
        self.end_probs = epoch_end_weights(self.m0)[1]


def _smallest_cube_ge(v: int) -> int:
    c = max(1, round(v ** (1.0 / 3.0)))
    while c ** 3 >= v:
        c -= 1
    while c ** 3 < v:
        c += 1
    return c


def default_svrg_params(n: int, m_override: int | None = None,
                        m0_override: int | None = None,
                        theory_constant: int = 54) -> SvrgSchedule:
    """Theory-default schedule: m = n and the smallest m0 with
    m0^3 >= C m^2; m is rounded up so m0 divides it.

    C defaults to the formal-proof constant 54; the looser sketch value 12
    yields shorter sub-epochs (larger step) and is selectable for speedup
    experiments.  For tiny m the cube condition cannot hold below m; then
    m0 is clamped to m (one sub-epoch) and ``theory_ok`` is False.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    m = int(m_override) if m_override is not None else int(n)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m0_override is not None:
        m0 = int(m0_override)
        if m0 < 1:
            raise ValueError(f"need m0 >= 1, got {m0}")
        d = -(-m // m0)
        m = d * m0
        theory_ok = m0 ** 3 >= theory_constant * m * m
    else:
        m0_star = _smallest_cube_ge(theory_constant * m * m)
        if m0_star >= m:
            m0, theory_ok = m, False
            log.warning(
                "m=%d too small for the sub-epoch cube condition; clamping "
                "m0=m (single sub-epoch, theory_ok=False)", m)
        else:
            d = m // m0_star
            m0 = -(-m // d)
            m = d * m0
            theory_ok = m0 ** 3 >= theory_constant * m * m
    return SvrgSchedule(m, m0, theory_ok)


def theory_step(schedule: SvrgSchedule, L: float) -> float:
    """The paper's SVRG step 1/(m0*L) at smoothness L; the runners step
    with ``ConstantRate`` of it at ``obj.smoothness`` when given no rate."""
    if not 0 < L < math.inf:
        raise ValueError(f"smoothness constant must be positive and finite, "
                         f"got {L} (all-zero features or empty data?)")
    return 1.0 / (schedule.m0 * L)


def _check_step(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ConstantRate:
    eta: float

    def __post_init__(self):
        _check_step("eta", self.eta)

    def value(self, k: int, n: int) -> float:
        return self.eta


@dataclass(frozen=True)
class PolynomialRate:
    """eta_k = alpha * (1 + k/n)^(-beta) with beta >= 0 (decaying)."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_step("alpha", self.alpha)
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be non-negative, got {self.beta}")

    def value(self, k: int, n: int) -> float:
        return self.alpha * (1.0 + k / n) ** -self.beta


@dataclass(frozen=True)
class AdaGradRate:
    """Per-coordinate adaptive scaling; delta guards the first divisions.

    An alpha of None stands for 1/L; the caller fills it in once the
    smoothness constant is known, before any runner takes the rate."""

    alpha: float | None = None
    delta: float = 1e-8

    def __post_init__(self):
        if self.alpha is not None:
            _check_step("alpha", self.alpha)
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be non-negative, got {self.delta}")


def adagrad_step(acc: np.ndarray, g: np.ndarray, alpha: float,
                 delta: float = 1e-8) -> np.ndarray:
    """Accumulate g*g into ``acc``, the running sum of squared gradients
    (one cell per coordinate), and return alpha*g/sqrt(acc + delta)."""
    if acc.shape != g.shape:
        raise ValueError(f"accumulator shape {acc.shape} does not match "
                         f"gradient shape {g.shape}")
    acc += g * g
    denom = np.sqrt(acc + delta)
    denom[denom == 0.0] = 1.0
    return alpha * g / denom


def parse_rate(text: str):
    """Parse 'constant:ETA', 'poly:ALPHA,BETA', 'adagrad[:ALPHA[,DELTA]]'."""
    name, colon, args = text.strip().partition(":")
    parts = args.split(",") if args else []
    if name == "constant":
        (eta,) = parts
        return ConstantRate(float(eta))
    if name == "poly":
        alpha, beta = parts
        return PolynomialRate(float(alpha), float(beta))
    if name == "adagrad" and len(parts) <= 2 and (parts or not colon):
        return AdaGradRate(*(float(p) for p in parts))
    raise ValueError(f"cannot parse learning-rate spec {text!r}")


# ---------------------------------------------------------------------------
# run results
# ---------------------------------------------------------------------------


@dataclass
class ProbeSample:
    """One oracle measurement of the exact squared gradient norm."""

    epoch: int
    k: int
    grad_norm_sq: float
    eligible: bool = True


@dataclass
class RunResult:
    """Outcome of one optimizer run."""

    output: np.ndarray
    trace: list[TraceRecord]
    grad_evals: int
    probe_samples: list[ProbeSample] = field(default_factory=list)
    epoch_stops: list[int] = field(default_factory=list)
    evals_to_target: int | None = None
    epoch_iterates: list[np.ndarray] | None = None

    @property
    def passes(self) -> float:
        return self.trace[-1].passes if self.trace else 0.0

    @property
    def final_value(self) -> float:
        """Objective at the last exact evaluation, the trace's last row,
        which every runner makes right before it returns: at ``output`` for
        gd, sgd and a run that met its target, but at the last iterate, not
        ``output``, for an SVRG run that used its epochs without meeting
        it."""
        return self.trace[-1].objective

    @property
    def final_grad_norm_sq(self) -> float:
        """Squared gradient norm at the evaluation of :attr:`final_value`."""
        return self.trace[-1].grad_norm_sq


class _Reservoir:
    """Size-1 uniform reservoir over a stream of vectors."""

    def __init__(self):
        self.count = 0
        self.pick = None

    def feed(self, x: np.ndarray, u: float):
        self.count += 1
        if u * self.count < 1.0:
            self.pick = x.copy()


class _Ledger:
    """Component-gradient evaluations and trace of one run.

    Every exact evaluation a runner makes goes through :meth:`checkpoint`,
    which charges one pass, checks the value and the gradient norm for
    divergence, logs the trace row and tells whether the evaluation meets
    the run's ``target`` squared gradient norm; inner steps are charged
    with :meth:`charge`.
    """

    def __init__(self, n: int, target: float | None = None):
        self.n = n
        self.target = target
        self.evals = 0
        self.evals_to_target = None
        self.trace: list[TraceRecord] = []
        self.initial_value = None
        self.t0 = time.perf_counter()

    def charge(self, evals: int) -> None:
        self.evals += evals

    def meets(self, grad_norm_sq: float) -> bool:
        return self.target is not None and grad_norm_sq <= self.target

    def checkpoint(self, value: float, grad: np.ndarray, epoch: int,
                   where: str) -> bool:
        """Log an exact evaluation (value, grad); returns whether it meets
        the target, and then records the evaluations spent before it."""
        self.evals += self.n
        if self.initial_value is None:
            self.initial_value = value
        initial, gns = self.initial_value, sq_norm(grad)
        if not math.isfinite(value) or abs(value) > _DIVERGE_FACTOR * max(
                1.0, abs(initial)):
            raise DivergenceError(
                f"objective {value!r} at {where} (initial {initial!r})")
        if not math.isfinite(gns):
            raise DivergenceError(f"gradient norm {gns!r} at {where}")
        self.trace.append(TraceRecord(self.evals / self.n, value, gns,
                                      time.perf_counter() - self.t0, epoch))
        if not self.meets(gns):
            return False
        # The certifying evaluation is not part of producing the point.
        self.evals_to_target = self.evals - self.n
        return True

    def result(self, output, **extra) -> RunResult:
        return RunResult(output=output, trace=self.trace,
                         grad_evals=self.evals,
                         evals_to_target=self.evals_to_target, **extra)


# ---------------------------------------------------------------------------
# SVRG runners
# ---------------------------------------------------------------------------


# perfbench wraps this name and ErmObjective.fused_svrg_estimator to time
# the estimator layer: renaming either, or an inner step that bypasses
# both, fails every benchmark operation.
def _generic_estimator(cache: SnapshotCache, obj, x, batch,
                       out=None) -> np.ndarray:
    # The parentheses make x == x_ref return full_grad exactly.
    return np.add(cache.full_grad, obj.batch_mean_grad(batch, x)
                  - obj.batch_mean_grad(batch, cache.x_ref), out=out)


def _resolve_estimator(mode: str, obj):
    """Fused kernel for stored residuals, else the generic formula; both
    write into ``out`` when given one and return a new array otherwise."""
    if mode == "stored":
        return obj.fused_svrg_estimator
    return lambda c, point, batch, out=None: _generic_estimator(
        c, obj, point, batch, out=out)


def svrg_estimator(cache: SnapshotCache, obj: FiniteSumObjective,
                   x: np.ndarray, batch) -> np.ndarray:
    """Variance-reduced gradient estimate at x for the given 1-based batch:
    full_grad(ref) + mean_i(grad_i(x) - grad_i(ref)).

    Averaged over all singleton batches this is exactly the full gradient.
    """
    batch = np.atleast_1d(np.asarray(batch, dtype=np.int64))
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    if batch.min() < 1 or batch.max() > obj.n:
        raise IndexError("batch index out of range")
    return _resolve_estimator(cache.mode, obj)(cache, x, batch)


def epochs_for_passes(obj, passes: float, m: int, batch_size: int,
                      accounting: str = "auto") -> int:
    """SVRG epochs of m steps at batch b that fit a budget of ``passes``.

    An epoch costs 1 + m*b/n passes, or 1 + 2m*b/n when ``obj`` recomputes
    reference gradients under ``accounting``.  The final exact evaluation
    is outside the budget; a budget below one epoch still runs one.  The
    count is exact: floor(passes * n / (n + k*m*b)) in integers, k = 1 or
    2."""
    k = 2 if obj.snapshot_mode(accounting) == "recompute" else 1
    p, q = passes.as_integer_ratio()
    return max(1, (p * obj.n) // (q * (obj.n + k * m * batch_size)))


def draw_epoch_stop(rng: RandomSource, schedule: SvrgSchedule) -> int:
    """Weighted draw of the epoch stopping index m_s in {m-m0+1 .. m}."""
    j = rng.choice_weighted(schedule.end_probs)
    return schedule.m - j


def _simple_plan(rng: RandomSource, schedule: SvrgSchedule):
    """svrg1's epoch: x_1 .. x_m join the reservoir, and the next epoch
    starts from x_m."""
    return 1, rng.uniforms(schedule.m), None


def _full_plan(rng: RandomSource, schedule: SvrgSchedule):
    """svrg2's epoch: x_0 .. x_{m_s-1} join the reservoir, and the next
    epoch restarts from x_{m_s}.  Draws the uniforms of x_0 .. x_{m-m0},
    then m_s, then the uniforms of the late iterates up to x_{m_s-1}."""
    m, m0 = schedule.m, schedule.m0
    us = rng.uniforms(m - m0 + 1)
    m_s = draw_epoch_stop(rng, schedule)
    if m_s > m - m0 + 1:
        us = np.concatenate((us, rng.uniforms(m_s - (m - m0) - 1)))
    return 0, us, m_s


def _step_rule(lr, dim: int, n: int):
    """``step(x, g, k)``: x -= the rate's step along g at global step k, in
    place; g, the caller's gradient or estimate, may be overwritten."""
    if not isinstance(lr, AdaGradRate):
        def step(x, g, k):
            g *= lr.value(k, n)
            x -= g
        return step
    if lr.alpha is None:
        raise ValueError("AdaGradRate has no alpha; fill in 1/L before a "
                         "runner takes the rate")
    acc = np.zeros(dim)

    def step(x, g, k):
        x -= adagrad_step(acc, g, lr.alpha, lr.delta)
    return step


def _svrg_engine(plan, obj, x_start, schedule, epochs, batch_size, rng,
                 lr=None, accounting="auto", probe_stride=None,
                 record_iterates=False, target_grad_sq=None) -> RunResult:
    """The epoch loop of both SVRG runners; ``plan`` is the variant's.

    Options: ``lr`` (default :func:`theory_step`), ``accounting`` (stored
    or recomputed reference gradients), ``probe_stride`` (an exact
    gradient probe every that many inner steps), ``record_iterates`` (keep
    each epoch's iterates) and ``target_grad_sq`` (stop at the first exact
    evaluation that meets it)."""
    if epochs < 1:
        raise ValueError("need at least one epoch")
    if not 1 <= batch_size <= obj.n:
        raise ValueError(f"batch size must be in 1..{obj.n}")
    if record_iterates and (schedule.m + 1) * obj.dim > 1_000_000:
        raise ValueError("iterate recording is desk-scale only")
    step = _step_rule(lr or ConstantRate(theory_step(schedule, obj.smoothness)),
                      obj.dim, obj.n)
    mode = obj.snapshot_mode(accounting)
    estimate = _resolve_estimator(mode, obj)
    m, m0, n = schedule.m, schedule.m0, obj.n
    inner_cost = batch_size if mode == "stored" else 2 * batch_size

    x = np.array(x_start, dtype=np.float64)
    ledger = _Ledger(n, target_grad_sq)
    probes: list[ProbeSample] = []
    stops: list[int] = []
    iterates: list[np.ndarray] | None = [] if record_iterates else None
    reservoir = _Reservoir()
    est = np.empty(obj.dim)     # estimator output, scaled in place
    k_global = 0

    def finish(output) -> RunResult:
        return ledger.result(output, probe_samples=probes, epoch_stops=stops,
                             epoch_iterates=iterates)

    for s in range(1, epochs + 1):
        cache = obj.build_snapshot(x, mode=accounting)
        if ledger.checkpoint(cache.value, cache.full_grad, s - 1,
                             f"epoch {s} snapshot"):
            return finish(x.copy())
        # The inner loop draws nothing: the indices and the plan come first.
        idx = rng.draw_indices(n, size=m * batch_size).reshape(m, batch_size)
        first, us, stop = plan(rng, schedule)
        last, restart = first + len(us), None
        epoch_rows = np.empty((m + 1, obj.dim)) if record_iterates else None

        for k in range(m):
            if first <= k < last:
                reservoir.feed(x, us[k - first])
            elif k == stop:
                restart = x.copy()
            if record_iterates:
                epoch_rows[k] = x
            if probe_stride and k % probe_stride == 0:
                # The snapshot evaluated x_0 and did not meet the target.
                if k == 0:
                    g2 = ledger.trace[-1].grad_norm_sq
                else:
                    value, grad = obj.full_value_and_gradient(x)
                    g2 = sq_norm(grad)
                probes.append(ProbeSample(s, k, g2, eligible=(k <= m - m0)))
                if ledger.meets(g2):
                    ledger.charge(k * inner_cost)
                    ledger.checkpoint(value, grad, s, "final point")
                    return finish(x.copy())
            # Python ints: the objectives' row loops index with them.
            step(x, estimate(cache, x, idx[k].tolist(), out=est), k_global)
            k_global += 1
            if k % _GUARD_STRIDE == 0 and not np.all(np.isfinite(x)):
                raise DivergenceError(f"non-finite iterate at epoch {s}, k={k}")
        if first <= m < last:
            reservoir.feed(x, us[m - first])
        ledger.charge(m * inner_cost)

        if record_iterates:
            epoch_rows[m] = x
            iterates.append(epoch_rows)
        if stop is not None:
            # Iterates after the stop were computed and charged, but the
            # next epoch restarts from x_stop (the loop-end x when stop == m).
            stops.append(stop)
            if restart is not None:
                x = restart

    value, grad = obj.full_value_and_gradient(x)
    if ledger.checkpoint(value, grad, epochs, "final point"):
        return finish(x.copy())
    return finish(reservoir.pick)


def svrg_simple_run(obj, x_start, schedule: SvrgSchedule, epochs: int,
                    batch_size: int, rng: RandomSource,
                    **options) -> RunResult:
    """Variance-reduced epochs restarting at the last iterate; the returned
    point is uniform over all post-update iterates.  Without an ``lr`` the
    step is :func:`theory_step` at ``obj.smoothness``."""
    return _svrg_engine(_simple_plan, obj, x_start, schedule, epochs,
                        batch_size, rng, **options)


def svrg_full_run(obj, x_start, schedule: SvrgSchedule, epochs: int,
                  batch_size: int, rng: RandomSource,
                  **options) -> RunResult:
    """Variance-reduced epochs with the weighted epoch-end stopping draw and
    a uniform reservoir output over all eligible iterates; the step defaults
    as :func:`svrg_simple_run`'s does."""
    return _svrg_engine(_full_plan, obj, x_start, schedule, epochs,
                        batch_size, rng, **options)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def gd_run(obj, x_start, steps: int, step: float | None = None,
           target_grad_sq: float | None = None) -> RunResult:
    """Deterministic full-gradient descent with fixed step 1/L by default.

    Each step costs one data pass.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if step is None:
        step = 1.0 / obj.smoothness
    x = np.array(x_start, dtype=np.float64)
    ledger = _Ledger(obj.n, target_grad_sq)
    for k in range(steps + 1):
        value, grad = obj.full_value_and_gradient(x)
        if ledger.checkpoint(value, grad, k, f"step {k}") or k == steps:
            break
        x = x - step * grad
    return ledger.result(x)


def sgd_run(obj, x_start, iterations: int, batch_size: int, rng: RandomSource,
            lr, eval_every: int | None = None,
            target_grad_sq: float | None = None) -> RunResult:
    """Mini-batch stochastic gradient descent returning its last iterate.

    ``lr`` is a ConstantRate, PolynomialRate, or AdaGradRate.  Each
    iteration costs batch_size/n passes; exact-evaluation checkpoints
    (every ``eval_every`` iterations, plus the final one) cost one full
    pass each and are logged as such.  A checkpoint that meets
    ``target_grad_sq`` ends the run and returns the point it evaluated.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if not 1 <= batch_size <= obj.n:
        raise ValueError(f"batch size must be in 1..{obj.n}")
    step = _step_rule(lr, obj.dim, obj.n)
    n, b = obj.n, batch_size
    x = np.array(x_start, dtype=np.float64)
    ledger = _Ledger(n, target_grad_sq)

    chunk = 8192
    for base in range(0, iterations, chunk):
        count = min(chunk, iterations - base)
        idx = rng.draw_indices(n, size=count * b).reshape(count, b)
        for j in range(count):
            k = base + j
            step(x, obj.batch_mean_grad(idx[j].tolist(), x), k)
            ledger.charge(b)
            if k % _GUARD_STRIDE == 0 and not np.all(np.isfinite(x)):
                raise DivergenceError(f"non-finite iterate at iteration {k}")
            if eval_every and (k + 1) % eval_every == 0 and k + 1 < iterations:
                value, grad = obj.full_value_and_gradient(x)
                if ledger.checkpoint(value, grad, k + 1, f"iteration {k + 1}"):
                    return ledger.result(x)
    value, grad = obj.full_value_and_gradient(x)
    ledger.checkpoint(value, grad, iterations, f"iteration {iterations}")
    return ledger.result(x)

