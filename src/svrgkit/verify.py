"""Independent numerical oracles: finite-difference gradients, exact
variance enumeration and log-log rate-slope fitting; and the verification
gate that ``svrgkit verify`` runs.

The oracles deliberately avoid the analytic code paths they check:
``fd_gradient`` only calls a black-box scalar function and
``exact_variance`` enumerates every component.  The smoothness probe,
which samples gradient-difference ratios directly, is the one in
``objectives`` (:func:`~svrgkit.objectives.smoothness_probe`, re-exported
here), since a network's run takes its L from it; the gate checks ERM's
closed-form constants against it at scale 1.  Only
:func:`run_verification` composes the oracles with the objectives, the
estimator and the schedule weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RandomSource, sq_norm
from .dataio import Dataset
from .losses import ALL_ERM_LOSSES
from .objectives import TwoLayerNet, make_synthetic, smoothness_probe
from .optim import (beta_weights, default_svrg_params, epoch_end_weights,
                    svrg_estimator, svrg_simple_run)

# Central finite differences use coordinate-relative steps
# h_j = FD_H0 * (1 + |x_j|).
FD_H0 = 1e-6


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector, with
    step FD_H0 * (1 + |x_j|) on coordinate j."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.size):
        h = FD_H0 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] = x[j] + h
        fp = f(xp)
        xp[j] = x[j] - h
        fm = f(xp)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation at coordinate {j}")
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


def exact_variance(obj, x: np.ndarray, x_ref: np.ndarray,
                   max_n: int = 10_000) -> tuple[float, float]:
    """Exact estimator variance at (x, x_ref) by full enumeration, and the
    smoothness bound L^2 ||x - x_ref||^2.

    The variance is the mean over components i of
    ||(g_i(x) - g_i(x_ref)) - (g(x) - g(x_ref))||^2.
    """
    if obj.n > max_n:
        raise ValueError(f"n={obj.n} exceeds enumeration guard {max_n}")
    diffs = np.empty((obj.n, obj.dim))
    for i in range(1, obj.n + 1):
        diffs[i - 1] = obj.component(i, x)[1] - obj.component(i, x_ref)[1]
    mean_diff = diffs.mean(axis=0)
    variance = float(((diffs - mean_diff) ** 2).sum(axis=1).mean())
    bound = obj.smoothness ** 2 * sq_norm(np.asarray(x) - np.asarray(x_ref))
    return variance, bound


def epoch_variance_aggregate(obj, iterates: np.ndarray, m0: int,
                             ) -> tuple[float, float]:
    """Aggregate exact estimator variance along one recorded epoch, and its
    bound L^2 * d^2 * sum_t ||x_{t+1} - x_{t+1-m0}||^2 (indices below zero
    clamp to the epoch start, d = m/m0).

    ``iterates`` has shape (m+1, dim): the epoch start followed by the m
    inner iterates.  Exact per-iterate variances are enumerated, so this is
    desk-scale only.
    """
    m = iterates.shape[0] - 1
    if m % m0 != 0:
        raise ValueError("m0 must divide the epoch length")
    d_sub = m // m0
    x0 = iterates[0]
    total_var = 0.0
    for t in range(m):
        total_var += exact_variance(obj, iterates[t], x0)[0]
    total_dist = 0.0
    for t in range(m):
        prev = iterates[max(t + 1 - m0, 0)]
        total_dist += sq_norm(iterates[t + 1] - prev)
    bound = obj.smoothness ** 2 * d_sub ** 2 * total_dist
    return total_var, bound


def fit_rate_slope(points) -> SlopeFit:
    """Least-squares fit of log(y) against log(s) for positive (s, y) pairs."""
    points = [(float(s), float(y)) for s, y in points]
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    if any(s <= 0 or y <= 0 for s, y in points):
        raise ValueError("all points must be positive for a log-log fit")
    xs = np.log([s for s, _ in points])
    ys = np.log([y for _, y in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)))


# ---------------------------------------------------------------------------
# verification gate
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fd_rel_err(obj, x: np.ndarray) -> float:
    """||fd - grad|| / (1 + ||grad||) for the full objective at x."""
    grad = obj.full_value_and_gradient(x)[1]
    fd = fd_gradient(lambda p: obj.full_value_and_gradient(p)[0], x)
    return np.sqrt(sq_norm(fd - grad)) / (1.0 + np.sqrt(sq_norm(grad)))


def run_verification(seed: int = 0, fault: str | None = None,
                     ) -> list[CheckResult]:
    """The numerical invariant gate.  ``fault='sigmoid-scale'`` doubles the
    sigmoid's measured smoothness ratio, as scaling its gradients by 2 would
    (exactly, in floating point), so component-smoothness must fail."""
    rng = RandomSource(seed)
    checks: list[CheckResult] = []

    def record(name, passed, detail):
        checks.append(CheckResult(name, bool(passed), detail))

    # estimator unbiasedness over all singleton batches
    worst = 0.0
    for trial in range(10):
        obj = make_synthetic(rng.draw_index(40) + 5, rng.draw_index(8) + 1,
                             seed=trial, lam=1e-2)
        x, ref = rng.normals(obj.dim), rng.normals(obj.dim)
        cache = obj.build_snapshot(ref)
        avg = np.mean([svrg_estimator(cache, obj, x, [i])
                       for i in range(1, obj.n + 1)], axis=0)
        grad = obj.full_value_and_gradient(x)[1]
        worst = max(worst, np.sqrt(sq_norm(avg - grad) /
                                   max(sq_norm(grad), 1e-300)))
    record("estimator-unbiasedness", worst <= 1e-12, f"max rel err {worst:.2e}")

    # variance bound
    worst = -math.inf
    for trial in range(20):
        obj = make_synthetic(30, 6, seed=100 + trial, lam=1e-3)
        var, bound = exact_variance(obj, rng.normals(6), rng.normals(6))
        worst = max(worst, var - bound)
    record("variance-bound", worst <= 1e-9, f"max excess {worst:.2e}")

    # per-epoch aggregate variance bound along recorded runs (several
    # sub-epochs per epoch so the chained-distance bound is exercised)
    worst = -math.inf
    for trial in range(3):
        obj = make_synthetic(24, 4, seed=200 + trial, lam=1e-3)
        sched = default_svrg_params(obj.n, m0_override=6)
        res = svrg_simple_run(obj, np.zeros(obj.dim), sched, 1, 1,
                              RandomSource(trial), record_iterates=True)
        var, bound = epoch_variance_aggregate(obj, res.epoch_iterates[0],
                                              sched.m0)
        worst = max(worst, var - bound)
    record("epoch-variance-aggregate", worst <= 1e-6,
           f"max excess {worst:.2e}")

    # smoothness probes across losses (fault injection lands here)
    worst = -math.inf
    for li, loss in enumerate(ALL_ERM_LOSSES):
        obj = make_synthetic(40, 6, seed=7, loss=loss, lam=1e-2)
        ratio = smoothness_probe(obj, 200, rng.fork(50 + li))
        if fault == "sigmoid-scale" and loss.name == "sigmoid":
            ratio *= 2.0
        worst = max(worst, ratio - obj.smoothness)
    record("component-smoothness", worst <= 1e-9, f"max excess {worst:.2e}")

    # sub-epoch weight bounds and stopping distribution normalization
    record("subepoch-weight-bounds",
           all(b[0] == 1.0 and b.min() >= 1.0 / math.e and b.max() <= 1.0
               for b in map(beta_weights, range(1, 2001))), "m0 in 1..2000")
    probs = [epoch_end_weights(m0)[1] for m0 in (1, 2, 3, 7, 64, 500)]
    worst = max(abs(p.sum() - 1.0) for p in probs)
    record("stop-distribution-normalized",
           worst <= 1e-12 and all(p.min() > 0 for p in probs),
           f"max |sum-1| {worst:.2e}")

    # finite-difference gradient checks
    objs = [make_synthetic(15, 5, seed=11, loss=loss, lam=1e-2)
            for loss in ALL_ERM_LOSSES]
    worst = max(_fd_rel_err(obj, rng.normals(5)) for obj in objs
                for _ in range(3))
    record("gradient-fd-erm", worst <= 1e-5, f"max rel err {worst:.2e}")
    # six dense 3-feature rows, classes 1, 2, 1, 2, ...
    ds = Dataset.from_csr(np.arange(0, 19, 3), np.tile(np.arange(3), 6),
                          rng.normals(18), np.arange(6) % 2 + 1, binary=False)
    net = TwoLayerNet(ds, hidden_dim=4, class_count=2, lam=1e-2)
    worst = max(_fd_rel_err(net, 0.5 * rng.normals(net.dim)) for _ in range(3))
    record("gradient-fd-net", worst <= 1e-5, f"max rel err {worst:.2e}")
    return checks
