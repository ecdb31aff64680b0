"""Optimization algorithms for finite-sum objectives.

Implements plain gradient descent, mini-batch SGD with constant/polynomial/
AdaGrad learning rates, and two variance-reduced runners:

* :func:`svrg_simple_run` - epochs of m inner iterations; each epoch's
  snapshot and starting point is the previous epoch's last iterate; the
  returned point is drawn uniformly from all post-update iterates.
* :func:`svrg_full_run` - additionally draws a weighted stopping index
  m_s in {m-m0+1..m} for each epoch (weights built from the geometric
  sub-epoch coefficients), restarts the next epoch from that iterate, and
  returns a uniform draw from the union of all eligible iterates
  {x_0..x_{m_s-1}} across epochs, realized by reservoir sampling.

Per-epoch RNG consumption order is fixed (component indices, reservoir
uniforms, stopping draw, late-iterate reservoir uniforms), so a run is a
pure function of (objective, config, seed).  The inner loop draws nothing,
so all four are drawn at epoch start; iterates then join the reservoir as
they are produced and only x_{m_s} is copied for the restart.  A run thus
holds a fixed number of d-vectors whatever m and m0 are (``record_iterates``
aside), and the inner step writes its estimate into one reused buffer.

Pass accounting follows the stored-snapshot convention: a snapshot costs 1
pass and an inner iteration with batch b costs b/n passes when reference
gradients are reconstructed from cached residuals, or 2b/n when they are
recomputed.  Exact-evaluation checkpoints requested beyond the free
snapshot ones are charged honestly.  Every exact evaluation (snapshot,
checkpoint, final point) goes through one run ledger that charges it,
checks it for divergence and logs its trace row.  A run that stops on
``target_grad_sq`` returns the point whose evaluation met the target.
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
    """Epoch geometry and step length for the variance-reduced runners:
    d_sub = m/m0 sub-epochs per epoch, and the stopping-draw probabilities
    ``end_probs`` of :func:`epoch_end_weights`."""

    m: int
    m0: int
    eta: float
    theory_ok: bool
    d_sub: int = field(init=False)
    end_probs: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.m < 1 or self.m0 < 1:
            raise ValueError("m and m0 must be >= 1")
        if self.m % self.m0:
            raise ValueError(f"m0={self.m0} does not divide m={self.m}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"step length must be positive and finite, "
                             f"got {self.eta}")
        self.d_sub = self.m // self.m0
        self.end_probs = epoch_end_weights(self.m0)[1]


def _smallest_cube_ge(v: int) -> int:
    c = max(1, round(v ** (1.0 / 3.0)))
    while c ** 3 >= v:
        c -= 1
    while c ** 3 < v:
        c += 1
    return c


def default_svrg_params(n: int, L: float, m_override: int | None = None,
                        m0_override: int | None = None,
                        theory_constant: int = 54) -> SvrgSchedule:
    """Theory-default schedule: m = n, smallest m0 with m0^3 >= C m^2,
    eta = 1/(m0*L); m is rounded up so m0 divides it.

    C defaults to the formal-proof constant 54; the looser sketch value 12
    yields shorter sub-epochs (larger step) and is selectable for speedup
    experiments.  For tiny m the cube condition cannot hold below m; then
    m0 is clamped to m (one sub-epoch) and ``theory_ok`` is False.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (L > 0 and math.isfinite(L)):
        raise ValueError(f"smoothness constant must be positive and finite, "
                         f"got {L} (all-zero features or empty data?)")
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
    return SvrgSchedule(m, m0, 1.0 / (m0 * L), theory_ok)


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
    final_value: float = math.nan
    final_grad_norm_sq: float = math.nan
    probe_samples: list[ProbeSample] = field(default_factory=list)
    epoch_stops: list[int] = field(default_factory=list)
    evals_to_target: int | None = None
    epoch_iterates: list[np.ndarray] | None = None

    @property
    def passes(self) -> float:
        return self.trace[-1].passes if self.trace else 0.0

    def stationarity(self) -> float:
        """Mean exact squared gradient norm over eligible probed iterates."""
        vals = [s.grad_norm_sq for s in self.probe_samples if s.eligible]
        if not vals:
            raise ValueError("run was not probed; pass probe_stride")
        return float(np.mean(vals))


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
    divergence and logs the trace row; inner steps are charged with
    :meth:`charge`.
    """

    def __init__(self, n: int):
        self.n = n
        self.evals = 0
        self.trace: list[TraceRecord] = []
        self.initial_value = None
        self.t0 = time.perf_counter()

    def charge(self, evals: int) -> None:
        self.evals += evals

    def checkpoint(self, value: float, grad: np.ndarray, epoch: int,
                   where: str) -> float:
        """Log an exact evaluation (value, grad); returns ||grad||^2."""
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
        return gns

    def result(self, output, value: float, gns: float, **extra) -> RunResult:
        return RunResult(output=output, trace=self.trace,
                         grad_evals=self.evals, final_value=value,
                         final_grad_norm_sq=gns, **extra)


# ---------------------------------------------------------------------------
# SVRG runners
# ---------------------------------------------------------------------------


def _generic_estimator(cache: SnapshotCache, obj, x, batch,
                       out=None) -> np.ndarray:
    # The parentheses make x == x_ref return full_grad exactly.
    return np.add(cache.full_grad, obj.batch_mean_grad(batch, x)
                  - obj.batch_mean_grad(batch, cache.x_ref), out=out)


def _resolve_estimator(cache: SnapshotCache, obj):
    """Fused kernel for stored residuals, else the generic formula; both
    write into ``out`` when given one and return a new array otherwise."""
    if cache.mode == "stored":
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
    return _resolve_estimator(cache, obj)(cache, x, batch)


def epochs_for_passes(obj, passes: float, m: int, batch_size: int,
                      accounting: str = "auto") -> int:
    """SVRG epochs of m steps at batch b that fit a budget of ``passes``.

    An epoch costs 1 + m*b/n passes, or 1 + 2m*b/n when ``obj`` recomputes
    reference gradients under ``accounting``.  The final exact evaluation
    is outside the budget; a budget below one epoch still runs one."""
    recompute = obj.snapshot_mode(accounting) == "recompute"
    per_epoch = 1.0 + m * batch_size / obj.n * (2.0 if recompute else 1.0)
    return max(1, int(passes // per_epoch))


def draw_epoch_stop(rng: RandomSource, schedule: SvrgSchedule) -> int:
    """Weighted draw of the epoch stopping index m_s in {m-m0+1 .. m}."""
    j = rng.choice_weighted(schedule.end_probs)
    return schedule.m - j


def _svrg_engine(obj, x_start, schedule, epochs, batch_size, rng, lr=None,
                 variant="full", accounting="auto", probe_stride=None,
                 record_iterates=False, target_grad_sq=None,
                 eval_every_epochs=None) -> RunResult:
    if epochs < 1:
        raise ValueError("need at least one epoch")
    if not 1 <= batch_size <= obj.n:
        raise ValueError(f"batch size must be in 1..{obj.n}")
    if variant not in ("simple", "full"):
        raise ValueError(variant)
    adagrad = lr if isinstance(lr, AdaGradRate) else None
    ada_acc = np.zeros(obj.dim) if adagrad else None
    if record_iterates and (schedule.m + 1) * obj.dim > 1_000_000:
        raise ValueError("iterate recording is desk-scale only")

    m, m0, b = schedule.m, schedule.m0, batch_size
    n = obj.n
    x = np.array(x_start, dtype=np.float64)
    ledger = _Ledger(n)
    probes: list[ProbeSample] = []
    stops: list[int] = []
    iterates: list[np.ndarray] | None = [] if record_iterates else None
    reservoir = _Reservoir()
    step = np.empty(obj.dim)    # estimator output, scaled in place
    k_global = 0

    def finish(output, value, gns, evals_to_target=None) -> RunResult:
        return ledger.result(output, value, gns,
                             probe_samples=probes, epoch_stops=stops,
                             evals_to_target=evals_to_target,
                             epoch_iterates=iterates)

    estimate = None
    for s in range(1, epochs + 1):
        cache = obj.build_snapshot(x, mode=accounting)
        if estimate is None:
            estimate = _resolve_estimator(cache, obj)
        gns = ledger.checkpoint(cache.value, cache.full_grad, s - 1,
                                f"epoch {s} snapshot")
        if target_grad_sq is not None and gns <= target_grad_sq:
            # The certifying evaluation is not part of producing the point.
            return finish(x.copy(), cache.value, gns,
                          evals_to_target=ledger.evals - n)
        inner_cost = b if cache.mode == "stored" else 2 * b

        idx = rng.draw_indices(n, size=m * b).reshape(m, b)
        us = rng.uniforms((m - m0 + 1) if variant == "full" else m)
        if variant == "full":
            # The inner loop draws nothing, so the stop and the uniforms for
            # the late iterates m-m0+1 .. m_s-1 can be drawn up front.
            m_s = draw_epoch_stop(rng, schedule)
            n_late = m_s - (m - m0) - 1
            late_us = rng.uniforms(n_late) if n_late > 0 else None
            restart = None
        epoch_rows = np.empty((m + 1, obj.dim)) if record_iterates else None

        for k in range(m):
            if variant == "full":
                if k <= m - m0:
                    reservoir.feed(x, us[k])
                elif k < m_s:
                    reservoir.feed(x, late_us[k - (m - m0) - 1])
                elif k == m_s:
                    restart = x.copy()
            if record_iterates:
                epoch_rows[k] = x
            if probe_stride and k % probe_stride == 0:
                g2 = gns if k == 0 else sq_norm(
                    obj.full_value_and_gradient(x)[1])
                probes.append(ProbeSample(s, k, g2, eligible=(k <= m - m0)))
                if target_grad_sq is not None and g2 <= target_grad_sq:
                    ledger.charge(k * inner_cost)
                    spent = ledger.evals
                    value, grad = obj.full_value_and_gradient(x)
                    gns = ledger.checkpoint(value, grad, s, "final point")
                    return finish(x.copy(), value, gns, evals_to_target=spent)
            # Python ints: the objectives' row loops index with them.
            est = estimate(cache, x, idx[k].tolist(), out=step)
            if adagrad:
                x -= adagrad_step(ada_acc, est, adagrad.alpha, adagrad.delta)
            else:
                est *= schedule.eta if lr is None else lr.value(k_global, n)
                x -= est
            if variant == "simple":
                reservoir.feed(x, us[k])
            k_global += 1
            if k % _GUARD_STRIDE == 0 and not np.all(np.isfinite(x)):
                raise DivergenceError(f"non-finite iterate at epoch {s}, k={k}")
        ledger.charge(m * inner_cost)

        if record_iterates:
            epoch_rows[m] = x
            iterates.append(epoch_rows)

        if variant == "full":
            # Iterates after m_s were computed and charged, but the next
            # epoch restarts from x_{m_s} (the loop-end x when m_s == m).
            stops.append(m_s)
            if restart is not None:
                x = restart

        if eval_every_epochs and s % eval_every_epochs == 0 and s < epochs:
            value, grad = obj.full_value_and_gradient(x)
            ledger.checkpoint(value, grad, s, f"epoch {s} checkpoint")

    value, grad = obj.full_value_and_gradient(x)
    gns = ledger.checkpoint(value, grad, epochs, "final point")
    return finish(reservoir.pick if reservoir.pick is not None else x.copy(),
                  value, gns)


def svrg_simple_run(obj, x_start, schedule: SvrgSchedule, epochs: int,
                    batch_size: int, rng: RandomSource, lr=None,
                    accounting: str = "auto", probe_stride=None,
                    record_iterates: bool = False, target_grad_sq=None,
                    eval_every_epochs=None) -> RunResult:
    """Variance-reduced epochs restarting at the last iterate; the returned
    point is uniform over all post-update iterates."""
    return _svrg_engine(obj, x_start, schedule, epochs, batch_size, rng,
                        lr=lr, variant="simple", accounting=accounting,
                        probe_stride=probe_stride,
                        record_iterates=record_iterates,
                        target_grad_sq=target_grad_sq,
                        eval_every_epochs=eval_every_epochs)


def svrg_full_run(obj, x_start, schedule: SvrgSchedule, epochs: int,
                  batch_size: int, rng: RandomSource, lr=None,
                  accounting: str = "auto", probe_stride=None,
                  record_iterates: bool = False, target_grad_sq=None,
                  eval_every_epochs=None) -> RunResult:
    """Variance-reduced epochs with the weighted epoch-end stopping draw and
    a uniform reservoir output over all eligible iterates."""
    return _svrg_engine(obj, x_start, schedule, epochs, batch_size, rng,
                        lr=lr, variant="full", accounting=accounting,
                        probe_stride=probe_stride,
                        record_iterates=record_iterates,
                        target_grad_sq=target_grad_sq,
                        eval_every_epochs=eval_every_epochs)


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
    ledger = _Ledger(obj.n)
    for k in range(steps + 1):
        value, grad = obj.full_value_and_gradient(x)
        gns = ledger.checkpoint(value, grad, k, f"step {k}")
        if k == steps:
            break
        if target_grad_sq is not None and gns <= target_grad_sq:
            return ledger.result(x, value, gns,
                                 evals_to_target=ledger.evals - obj.n)
        x = x - step * grad
    return ledger.result(x, value, gns)


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
    adagrad = lr if isinstance(lr, AdaGradRate) else None
    ada_acc = np.zeros(obj.dim) if adagrad else None
    n, b = obj.n, batch_size
    x = np.array(x_start, dtype=np.float64)
    ledger = _Ledger(n)

    chunk = 8192
    for base in range(0, iterations, chunk):
        count = min(chunk, iterations - base)
        idx = rng.draw_indices(n, size=count * b).reshape(count, b)
        for j in range(count):
            k = base + j
            grad = obj.batch_mean_grad(idx[j].tolist(), x)
            ledger.charge(b)
            if adagrad:
                x -= adagrad_step(ada_acc, grad, adagrad.alpha, adagrad.delta)
            else:
                x -= lr.value(k, n) * grad
            if k % _GUARD_STRIDE == 0 and not np.all(np.isfinite(x)):
                raise DivergenceError(f"non-finite iterate at iteration {k}")
            if eval_every and (k + 1) % eval_every == 0 and k + 1 < iterations:
                value, grad = obj.full_value_and_gradient(x)
                gns = ledger.checkpoint(value, grad, k + 1,
                                        f"iteration {k + 1}")
                if target_grad_sq is not None and gns <= target_grad_sq:
                    return ledger.result(x, value, gns,
                                         evals_to_target=ledger.evals - n)
    value, grad = obj.full_value_and_gradient(x)
    gns = ledger.checkpoint(value, grad, iterations, f"iteration {iterations}")
    return ledger.result(x, value, gns)

