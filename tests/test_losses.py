import math

import numpy as np
import pytest
from scipy.special import expit

from svrgkit.losses import (ALL_ERM_LOSSES, SIGMOID_SCALE, LossKind,
                            eval_loss, loss_smoothness,
                            make_scalar_derivative)


def loss_id(kind):
    """The config spelling of a loss: 'sigmoid', 'hinge:0.1', ..."""
    return kind.name if kind.gamma is None else f"{kind.name}:{kind.gamma:g}"


def central_diff(kind, t, h=1e-6):
    return (eval_loss(kind, t + h).value - eval_loss(kind, t - h).value) / (2 * h)


class TestPointValues:
    def test_scaled_sigmoid_at_zero(self):
        value, deriv = eval_loss(LossKind("sigmoid"), 0.0)
        assert math.isclose(value, 0.5 * 6 * math.sqrt(3), rel_tol=1e-12)
        assert math.isclose(value, 5.196152, abs_tol=5e-7)
        assert math.isclose(deriv, -2.598076, abs_tol=5e-7)

    def test_sigmoid_scale_is_inverse_max_curvature(self):
        # densely scan the second derivative of 1/(1+e^t), the sigmoid loss
        # over its scale; its max magnitude should be the reciprocal of the
        # scaling constant
        sigmoid = LossKind("sigmoid")
        ts = np.linspace(-6, 6, 200_001)
        h = 1e-4
        second = (eval_loss(sigmoid, ts + h).derivative
                  - eval_loss(sigmoid, ts - h).derivative) / (2 * h)
        assert math.isclose(np.abs(second).max() / SIGMOID_SCALE,
                            1.0 / SIGMOID_SCALE, rel_tol=1e-6)

    def test_logistic_at_zero(self):
        value, deriv = eval_loss(LossKind("logistic"), 0.0)
        assert math.isclose(value, math.log(2), rel_tol=1e-15)
        assert deriv == -0.5

    def test_hinge_gamma1_at_zero(self):
        value, deriv = eval_loss(LossKind("hinge", 1.0), 0.0)
        assert value == 0.5
        assert deriv == -1.0

    def test_hinge_flat_branch(self):
        value, deriv = eval_loss(LossKind("hinge", 1.0), 2.0)
        assert value == 0.0 and deriv == 0.0

    def test_hinge_linear_branch(self):
        value, deriv = eval_loss(LossKind("hinge", 0.1), -3.0)
        assert math.isclose(value, 4.0 - 0.05, rel_tol=1e-15)
        assert deriv == -1.0

    def test_squared_at_zero(self):
        value, deriv = eval_loss(LossKind("squared"), 0.0)
        assert value == 0.5 and deriv == -1.0


class TestSmoothnessConstants:
    def test_values(self):
        assert loss_smoothness(LossKind("sigmoid")) == 1.0
        assert loss_smoothness(LossKind("logistic")) == 0.25
        assert loss_smoothness(LossKind("squared")) == 1.0
        assert loss_smoothness(LossKind("hinge", 0.1)) == 10.0
        assert loss_smoothness(LossKind("hinge", 0.01)) == 100.0

    @pytest.mark.parametrize("kind", ALL_ERM_LOSSES, ids=loss_id)
    def test_numeric_curvature_never_exceeds_constant(self, kind):
        ts = np.linspace(-8, 8, 20_001)
        h = 1e-5
        second = (eval_loss(kind, ts + h).derivative
                  - eval_loss(kind, ts - h).derivative) / (2 * h)
        assert np.abs(second).max() <= loss_smoothness(kind) * (1 + 1e-6)


class TestDerivativeProperties:
    @pytest.mark.parametrize("kind", ALL_ERM_LOSSES, ids=loss_id)
    def test_derivative_matches_finite_difference(self, kind):
        rng = np.random.default_rng(3)
        ts = rng.normal(scale=3.0, size=1000)
        for t in ts:
            d = eval_loss(kind, t).derivative
            assert abs(central_diff(kind, t) - d) <= 1e-6 * (1 + abs(d))

    @pytest.mark.parametrize("kind", ALL_ERM_LOSSES, ids=loss_id)
    def test_derivative_is_lipschitz(self, kind):
        rng = np.random.default_rng(4)
        L = loss_smoothness(kind)
        s = rng.normal(scale=4.0, size=1000)
        t = rng.normal(scale=4.0, size=1000)
        gap = np.abs(eval_loss(kind, s).derivative
                     - eval_loss(kind, t).derivative)
        assert np.all(gap <= L * np.abs(s - t) + 1e-9)

    @pytest.mark.parametrize(
        "kind", [LossKind("sigmoid"), LossKind("logistic"),
                 LossKind("hinge", 0.01), LossKind("hinge", 0.1),
                 LossKind("hinge", 1.0)], ids=loss_id)
    def test_margin_losses_non_increasing(self, kind):
        ts = np.linspace(-50, 50, 5001)
        assert np.all(eval_loss(kind, ts).derivative <= 0.0)

    @pytest.mark.parametrize("kind", ALL_ERM_LOSSES, ids=loss_id)
    def test_overflow_guard(self, kind):
        for t in (-1e4, -523.7, 0.0, 523.7, 1e4):
            value, deriv = eval_loss(kind, t)
            assert math.isfinite(value) and math.isfinite(deriv)

    @pytest.mark.parametrize("kind", ALL_ERM_LOSSES, ids=loss_id)
    def test_scalar_fast_path_agrees_with_vectorized(self, kind):
        deriv = make_scalar_derivative(kind)
        ts = np.concatenate([np.linspace(-40, 40, 2001), [-1e4, 1e4]])
        ref = eval_loss(kind, ts).derivative
        got = np.array([deriv(float(t)) for t in ts])
        assert np.allclose(got, ref, rtol=1e-14, atol=1e-300, equal_nan=False)

    def test_vectorized_matches_scalar_calls(self):
        ts = np.linspace(-5, 5, 101)
        for kind in ALL_ERM_LOSSES:
            vec = eval_loss(kind, ts)
            for i, t in enumerate(ts):
                one = eval_loss(kind, float(t))
                assert one.value == vec.value[i]
                assert one.derivative == vec.derivative[i]


# Both tails past exp's range, the subnormal edge (+-745), signed zeros and
# values too small to move 1 + e^t.
SIGMOID_GRID = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                               [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0]])


def expit_reference(kind, t):
    """(value or None, derivative) of a sigmoid-based loss from scipy."""
    if kind.name == "sigmoid":
        s = expit(-t)
        return SIGMOID_SCALE * s, -SIGMOID_SCALE * s * (1.0 - s)
    return None, -expit(-t)


SIGMOID_KINDS = (LossKind("sigmoid"), LossKind("logistic"))


class TestSigmoidFormula:
    @pytest.mark.parametrize("kind", SIGMOID_KINDS, ids=loss_id)
    def test_agrees_with_scipy_expit(self, kind):
        # Relative agreement down to the smallest normal double (times the
        # sigmoid's scale): scipy's expit returns 0 once e^-t overflows
        # (t < -709.78), while e^t is still about 1e-308 there.
        got = eval_loss(kind, SIGMOID_GRID)
        value, deriv = expit_reference(kind, SIGMOID_GRID)
        tiny = SIGMOID_SCALE * np.finfo(np.float64).tiny
        assert np.allclose(got.derivative, deriv, rtol=1e-14, atol=tiny)
        if value is not None:
            assert np.allclose(got.value, value, rtol=1e-14, atol=tiny)

    @pytest.mark.parametrize("kind", SIGMOID_KINDS, ids=loss_id)
    def test_raises_no_floating_point_error(self, kind):
        deriv = make_scalar_derivative(kind)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            vec = eval_loss(kind, SIGMOID_GRID)
            for t in SIGMOID_GRID[-6:]:
                eval_loss(kind, float(t))
                deriv(float(t))
        assert np.all(np.isfinite(vec.value))
        assert np.all(np.isfinite(vec.derivative))

    @pytest.mark.parametrize("kind", SIGMOID_KINDS, ids=loss_id)
    def test_both_branches_of_both_paths_agree_with_scipy_expit(self, kind):
        # t >= 0 takes e/(1+e) and t < 0 takes 1/(1+e), in the vectorized
        # path and in the scalar one of make_scalar_derivative.
        scalar = np.vectorize(make_scalar_derivative(kind))
        tiny = SIGMOID_SCALE * np.finfo(np.float64).tiny
        for branch in (SIGMOID_GRID >= 0.0, SIGMOID_GRID < 0.0):
            ts = SIGMOID_GRID[branch]
            assert ts.size > 8000
            _, want = expit_reference(kind, ts)
            for got in (eval_loss(kind, ts).derivative, scalar(ts)):
                assert np.allclose(got, want, rtol=1e-14, atol=tiny)


class TestSerialization:
    @pytest.mark.parametrize("text", ["sigmoid", "logistic", "squared",
                                      "hinge:0.01", "hinge:0.1", "hinge:1"])
    def test_round_trip(self, text):
        assert loss_id(LossKind.parse(text)) == text

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            LossKind.parse("perceptron")
        # log(1 + e^t) of the margin is the logistic loss of -t
        for make in (LossKind, LossKind.parse):
            with pytest.raises(ValueError, match="unknown loss 'softplus'"):
                make("softplus")
        with pytest.raises(ValueError):
            LossKind.parse("hinge:0")
        with pytest.raises(ValueError):
            LossKind("sigmoid", gamma=1.0)

    def test_hinge_width_is_finite(self):
        # a hinge of infinite width is zero everywhere; any finite width runs
        for make in (lambda: LossKind("hinge", math.inf),
                     lambda: LossKind.parse("hinge:inf"),
                     lambda: LossKind.parse("hinge:nan")):
            with pytest.raises(ValueError, match="0 < gamma < inf"):
                make()
        assert LossKind.parse("hinge:1e308").gamma == 1e308
