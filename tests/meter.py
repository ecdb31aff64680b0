"""A test-only evaluation meter: it counts the component gradients the code
actually computes, independently of the run ledger, which charges them by
formula.

Linear ERM computes one component gradient per loss derivative: ``eval_loss``
over each entry of its margin argument (a full pass, or one component), and
each per-row ``_deriv1`` call of the batched paths (mini-batch gradients and
the fused estimator).  A network computes one per row passed to
``block_value_and_gradient``, the kernel of its components and full passes.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from svrgkit import objectives
from svrgkit.objectives import TwoLayerNet


class Meter:
    """Component gradients computed while a runner made by :meth:`runner`
    runs (``inside``) and at any other time (``outside``)."""

    def __init__(self):
        self.inside = self.outside = 0
        self._running = False

    def count(self, evals: int) -> None:
        if self._running:
            self.inside += evals
        else:
            self.outside += evals

    def runner(self, run, **options):
        """``run`` with ``options`` added to its keyword arguments, counting
        what it computes as inside."""
        @functools.wraps(run)
        def counted(*args, **kwargs):
            self._running = True
            try:
                return run(*args, **kwargs, **options)
            finally:
                self._running = False
        return counted


@contextlib.contextmanager
def metered(obj):
    """A :class:`Meter` over every component gradient ``obj`` computes in
    the block; the objective is restored on exit."""
    meter = Meter()
    if isinstance(obj, TwoLayerNet):
        kernel = obj.block_value_and_gradient

        def block(rows, params):
            meter.count(np.arange(obj.n)[rows].size)
            return kernel(rows, params)

        obj.block_value_and_gradient = block
        try:
            yield meter
        finally:
            del obj.block_value_and_gradient
        return
    losses, deriv1 = objectives.eval_loss, obj._deriv1

    def eval_loss(kind, t):
        meter.count(np.size(t))
        return losses(kind, t)

    def counted_deriv1(t):
        meter.count(1)
        return deriv1(t)

    objectives.eval_loss, obj._deriv1 = eval_loss, counted_deriv1
    try:
        yield meter
    finally:
        objectives.eval_loss, obj._deriv1 = losses, deriv1
