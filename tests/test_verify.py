import math

import numpy as np
import pytest

from svrgkit.core import RandomSource, sq_norm
from svrgkit.losses import LossKind
from svrgkit.objectives import make_synthetic
from svrgkit.optim import default_svrg_params, svrg_simple_run
from svrgkit.verify import (epoch_variance_aggregate, exact_variance,
                            fd_gradient, fit_rate_slope, smoothness_probe)

from quadratic import QuadraticObjective


class TestFdGradient:
    def test_sine(self):
        got = fd_gradient(lambda x: math.sin(x[0]), np.array([0.0]))
        assert abs(got[0] - 1.0) <= 1e-9

    def test_half_norm_squared(self):
        got = fd_gradient(lambda x: 0.5 * sq_norm(x), np.array([1.0, 2.0]))
        assert np.allclose(got, [1.0, 2.0], atol=1e-8)

    def test_matches_analytic_erm_gradient(self):
        obj = make_synthetic(12, 4, seed=0, loss=LossKind("logistic"),
                             lam=1e-2)
        x = RandomSource(1).normals(4)
        _, grad = obj.full_value_and_gradient(x)
        fd = fd_gradient(lambda p: obj.full_value_and_gradient(p)[0], x)
        assert np.linalg.norm(fd - grad) / (1 + np.linalg.norm(grad)) <= 1e-5

    def test_non_finite_names_coordinate(self):
        def bad(x):
            return math.inf if x[1] > 0.5 else 0.0

        with pytest.raises(ValueError, match="coordinate 1"):
            fd_gradient(bad, np.array([0.0, 0.5]))


class TestExactVariance:
    def test_zero_at_snapshot(self):
        obj = make_synthetic(10, 3, seed=1, lam=1e-2)
        x = RandomSource(0).normals(3)
        variance, bound = exact_variance(obj, x, x)
        assert variance == 0.0 and bound == 0.0

    def test_scalar_quadratics_closed_form(self):
        # f_i(x) = a_i x^2 / 2 with a = (1, 3): variance at (x=1, ref=0)
        # equals Var(a_i) = 1 and the bound is L^2 = 9
        obj = QuadraticObjective([1.0, 3.0], dim=1)
        variance, bound = exact_variance(obj, np.array([1.0]),
                                         np.array([0.0]))
        assert math.isclose(variance, 1.0, rel_tol=1e-12)
        assert math.isclose(bound, 9.0, rel_tol=1e-12)

    def test_bound_holds_on_random_instances(self):
        rng = RandomSource(2)
        for trial in range(20):
            obj = make_synthetic(20, 4, seed=trial, lam=1e-3)
            x = rng.normals(4)
            ref = rng.normals(4)
            variance, bound = exact_variance(obj, x, ref)
            assert variance <= bound + 1e-9

    def test_enumeration_guard(self):
        obj = make_synthetic(20, 2, seed=3)
        with pytest.raises(ValueError):
            exact_variance(obj, np.zeros(2), np.zeros(2), max_n=10)


class TestSmoothnessProbe:
    def test_linear_gradient_ratio_is_exactly_curvature(self):
        obj = QuadraticObjective([1.0], dim=2)
        got = smoothness_probe(obj, 50, RandomSource(0))
        assert math.isclose(got, 1.0, rel_tol=1e-9)

    def test_zero_function(self):
        obj = QuadraticObjective([0.0], dim=2)
        assert smoothness_probe(obj, 20, RandomSource(1)) == 0.0

    def test_never_exceeds_declared_constant(self):
        for trial, loss in enumerate((LossKind("sigmoid"),
                                      LossKind("logistic"),
                                      LossKind("hinge", 0.1))):
            obj = make_synthetic(25, 5, seed=trial, loss=loss, lam=1e-2)
            got = smoothness_probe(obj, 300, RandomSource(trial))
            assert got <= obj.smoothness + 1e-9

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            smoothness_probe(QuadraticObjective([1.0], dim=1), 0,
                             RandomSource(0))


class TestEpochVarianceAggregate:
    def test_bound_holds_along_recorded_epochs(self):
        for seed in range(5):
            obj = make_synthetic(20, 3, seed=seed, lam=1e-3)
            sched = default_svrg_params(obj.n, m0_override=5)
            res = svrg_simple_run(obj, np.zeros(3), sched, 1, 1,
                                  RandomSource(seed), record_iterates=True)
            total, bound = epoch_variance_aggregate(obj,
                                                    res.epoch_iterates[0],
                                                    sched.m0)
            assert total <= bound + 1e-6

    def test_rejects_nondivisible_m0(self):
        with pytest.raises(ValueError):
            epoch_variance_aggregate(QuadraticObjective([1.0], dim=1),
                                     np.zeros((8, 1)), 3)


class TestFitRateSlope:
    def test_exact_inverse_law(self):
        points = [(s, 3.7 / s) for s in (2, 4, 8, 16, 32)]
        fit = fit_rate_slope(points)
        assert abs(fit.slope + 1.0) <= 1e-9
        assert fit.r_squared >= 1.0 - 1e-12

    def test_flat_input(self):
        fit = fit_rate_slope([(2, 5.0), (4, 5.0), (8, 5.0)])
        assert abs(fit.slope) <= 1e-12

    def test_recovers_planted_exponent(self):
        points = [(s, 2.5 * s ** -1.37) for s in (1, 3, 9, 27)]
        fit = fit_rate_slope(points)
        assert abs(fit.slope + 1.37) <= 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_rate_slope([(1, 1.0), (2, 0.5)])
        with pytest.raises(ValueError):
            fit_rate_slope([(1, 1.0), (2, -0.5), (3, 1.0)])
