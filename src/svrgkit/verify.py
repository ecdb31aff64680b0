"""Independent numerical oracles: finite-difference gradients, exact
variance enumeration, smoothness probes, and log-log rate-slope fitting.

These functions deliberately avoid the analytic code paths they check:
``fd_gradient`` only calls a black-box scalar function, ``exact_variance``
enumerates every component, and ``smoothness_probe`` samples gradient
difference ratios directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RandomSource, sq_norm

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


def smoothness_probe(obj, trials: int, rng: RandomSource) -> float:
    """Max sampled ratio ||g_i(x) - g_i(y)|| / ||x - y|| over random
    components and standard-normal point pairs x, y = x + N(0, I); must not
    exceed obj.smoothness."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    worst = 0.0
    for _ in range(trials):
        i = rng.draw_index(obj.n)
        x = rng.normals(obj.dim)
        y = x + rng.normals(obj.dim)
        dist2 = sq_norm(x - y)
        if dist2 == 0.0:
            continue
        gx = obj.component(i, x)[1]
        gy = obj.component(i, y)[1]
        worst = max(worst, np.sqrt(sq_norm(gx - gy) / dist2))
    return worst


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
