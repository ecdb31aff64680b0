"""A literal reference SVRG: a test-only oracle for the library runners.

It transcribes the paper's epoch loop as plainly as it can and shares no
step with ``optim``'s engine; it reads only the objective's ``component``
for estimates and its exact full evaluation for snapshots, probes and the
final point.

* Every iterate x_0 .. x_m of every epoch is kept.
* The estimate at x_k is the snapshot's full gradient plus the mean over
  the step's batch of grad_i(x_k) - grad_i(x_ref), each from ``component``.
* Each epoch draws from the run's stream in the order ``optim`` documents:
  its m*b component indices, then the plan's draws (svrg1: the m uniforms
  of x_1 .. x_m; svrg2: the uniforms of x_0 .. x_{m-m0}, the stopping
  draw, the uniforms of the late iterates up to x_{m_s-1}).
* The output is the stored eligible iterate that a size-1 uniform
  reservoir over those uniforms keeps, the last j with u_j * j < 1; svrg1
  restarts each epoch from the stored x_m and svrg2 from the stored
  x_{m_s}.
* The ledger charges n per exact evaluation that enters the trace, and b
  per inner step with stored reference gradients or 2b with recomputed
  ones.  An oracle probe at k > 0 is charged only when it meets the
  target; the run then stops at it, as at any evaluation that meets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ReferenceRun:
    output: np.ndarray | None = None
    epoch_stops: list[int] = field(default_factory=list)
    # (passes, objective, grad_norm_sq, epoch) per exact evaluation
    trace: list[tuple[float, float, float, int]] = field(default_factory=list)
    # (epoch, k, grad_norm_sq, eligible) per oracle probe
    probes: list[tuple[int, int, float, bool]] = field(default_factory=list)
    grad_evals: int = 0
    evals_to_target: int | None = None


def stop_probabilities(m0: int) -> np.ndarray:
    """The paper's stopping weights over m - j, j = 0 .. m0-1, normalized:
    beta_{m0-1} for j = 0, else (10/9) (beta_{m0-j} + ... + beta_{m0-1}),
    with beta_i = (1 + 1/m0)^-i."""
    betas = (1.0 + 1.0 / m0) ** -np.arange(m0, dtype=np.float64)
    weights = [betas[m0 - 1]] + [10.0 / 9.0 * betas[m0 - j:].sum()
                                 for j in range(1, m0)]
    return np.array(weights) / sum(weights)


def reference_svrg(variant: str, obj, x_start, m: int, m0: int, epochs: int,
                   batch_size: int, rng, rate, accounting: str,
                   probe_stride: int | None = None,
                   target: float | None = None) -> ReferenceRun:
    """``variant`` 'svrg1' or 'svrg2' on obj, with ``rate.value(k, n)`` the
    step at global inner step k and ``accounting`` 'stored' or
    'recompute'."""
    n, b = obj.n, batch_size
    inner_cost = b if accounting == "stored" else 2 * b
    run = ReferenceRun()
    eligible: list[np.ndarray] = []
    uniforms: list[float] = []

    def exact(x):
        value, grad = obj.full_value_and_gradient(x)
        return value, grad, float(np.dot(grad, grad))

    def log(value, g2, epoch) -> bool:
        """Charge and log an exact evaluation; whether it meets the target."""
        run.grad_evals += n
        run.trace.append((run.grad_evals / n, value, g2, epoch))
        if target is not None and g2 <= target:
            run.evals_to_target = run.grad_evals - n
            return True
        return False

    x = np.array(x_start, dtype=np.float64)
    for s in range(1, epochs + 1):
        x_ref = x
        value, mu, g2_ref = exact(x_ref)
        if log(value, g2_ref, s - 1):
            run.output = x_ref
            return run
        idx = rng.draw_indices(n, size=m * b).reshape(m, b)
        if variant == "svrg1":
            us = list(rng.uniforms(m))
        else:
            us = list(rng.uniforms(m - m0 + 1))
            stop = m - rng.choice_weighted(stop_probabilities(m0))
            us += list(rng.uniforms(stop - (m - m0) - 1))
        iterates = [x_ref]
        for k in range(m):
            x_k = iterates[k]
            if probe_stride and k % probe_stride == 0:
                value, _, g2 = (None, None, g2_ref) if k == 0 else exact(x_k)
                run.probes.append((s, k, g2, k <= m - m0))
                if k > 0 and target is not None and g2 <= target:
                    run.grad_evals += k * inner_cost
                    log(value, g2, s)
                    run.output = x_k
                    return run
            diff = sum(obj.component(int(i), x_k)[1]
                       - obj.component(int(i), x_ref)[1] for i in idx[k])
            estimate = mu + diff / b
            step = rate.value((s - 1) * m + k, n)
            iterates.append(x_k - step * estimate)
        run.grad_evals += m * inner_cost
        if variant == "svrg1":
            eligible += iterates[1:]
            x = iterates[m]
        else:
            eligible += iterates[:stop]
            run.epoch_stops.append(stop)
            x = iterates[stop]
        uniforms += us
        assert len(uniforms) == len(eligible)

    value, _, g2 = exact(x)
    if log(value, g2, epochs):
        run.output = x
        return run
    keep = max(j for j, u in enumerate(uniforms, start=1) if u * j < 1.0)
    run.output = eligible[keep - 1]
    return run
