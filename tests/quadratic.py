"""An analytic finite-sum objective for tests whose answers are known in
closed form (gradients, smoothness, exact variances)."""

import numpy as np

from svrgkit.core import sq_norm
from svrgkit.objectives import FiniteSumObjective


class QuadraticObjective(FiniteSumObjective):
    """Components f_i(x) = a_i/2 ||x||^2 + <b_i, x>; analytic test bed."""

    def __init__(self, curvatures, offsets=None, dim: int = 1):
        self.curv = np.asarray(curvatures, dtype=np.float64)
        self.n = int(self.curv.size)
        self.dim = int(dim)
        if offsets is None:
            offsets = np.zeros((self.n, self.dim))
        self.offs = np.asarray(offsets, dtype=np.float64).reshape(self.n, self.dim)
        self.smoothness = float(np.abs(self.curv).max()) if self.n else 0.0

    def component(self, i, x):
        a, b = self.curv[i - 1], self.offs[i - 1]
        return 0.5 * a * sq_norm(x) + float(b @ x), a * x + b

    def full_value_and_gradient(self, x):
        if self.n == 0:
            raise ValueError("objective has no components")
        a_bar = self.curv.mean()
        b_bar = self.offs.mean(axis=0)
        return 0.5 * a_bar * sq_norm(x) + float(b_bar @ x), a_bar * x + b_bar
