"""Scalar margin losses with first derivatives and smoothness constants.

Every loss is a function of the margin t = l * <a, x>.  Definitions:

  sigmoid     c / (1 + e^t) with c = 6*sqrt(3), the scaling that makes the
              Lipschitz constant of the derivative exactly 1
  logistic    log(1 + e^-t)
  squared     (1 - t)^2 / 2
  hinge:g     Huberized hinge, C^1 with derivative-Lipschitz constant 1/g:
              0 for t >= 1; (1-t)^2/(2g) for 1-g <= t < 1; (1-t) - g/2 below

A loss is ``LossKind(name)``, or ``LossKind("hinge", g)`` with 0 < g < inf;
:meth:`LossKind.parse` reads the one text form, 'name' or 'hinge:g'.

All evaluations are overflow-safe for arbitrarily large |t| and accept
scalars or numpy arrays.  The sigmoid and logistic derivatives go through
one falling-sigmoid formula, 1/(1+e^t) from e = exp(-|t|) (as e/(1+e) for
t >= 0 and 1/(1+e) below), which never overflows; the vectorized path
(``_falling_sigmoid``) and the scalar fast path of
:func:`make_scalar_derivative` write it with numpy and with ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# 1 / max |d^2/dt^2 1/(1+e^t)|, so the scaled sigmoid is exactly 1-smooth.
SIGMOID_SCALE = 6.0 * math.sqrt(3.0)

_KNOWN = ("sigmoid", "logistic", "squared", "hinge")


@dataclass(frozen=True)
class LossKind:
    """A loss family tag; ``gamma`` is the hinge smoothing width."""

    name: str
    gamma: float | None = None

    def __post_init__(self):
        if self.name not in _KNOWN:
            raise ValueError(f"unknown loss {self.name!r}")
        if self.name == "hinge":
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise ValueError("hinge loss needs 0 < gamma < inf")
        elif self.gamma is not None:
            raise ValueError(f"{self.name} loss takes no gamma")

    @classmethod
    def parse(cls, text: str) -> "LossKind":
        """Parse the config-file form: 'sigmoid', 'hinge:0.1', ..."""
        text = text.strip()
        if ":" in text:
            name, _, arg = text.partition(":")
            if name != "hinge":
                raise ValueError(f"unexpected parameter on loss {name!r}")
            return cls("hinge", float(arg))
        return cls(text)


class LossEval(NamedTuple):
    value: float
    derivative: float


def _out(t, arr):
    """Return a python float for scalar input, an ndarray otherwise."""
    return float(arr) if np.isscalar(t) or np.ndim(t) == 0 else arr


def _falling_sigmoid(t: np.ndarray) -> np.ndarray:
    """1/(1+e^t) elementwise: e/(1+e) for t >= 0 and 1/(1+e) below, with
    e = exp(-|t|), as the scalar path of make_scalar_derivative has it."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, e, 1.0) / (1.0 + e)


def eval_loss(kind: LossKind, t) -> LossEval:
    """Evaluate the loss and its derivative at margin(s) t."""
    ta = np.asarray(t, dtype=np.float64)
    if kind.name == "sigmoid":
        s = _falling_sigmoid(ta)
        value = SIGMOID_SCALE * s
        deriv = -SIGMOID_SCALE * s * (1.0 - s)
    elif kind.name == "logistic":
        value = np.logaddexp(0.0, -ta)
        deriv = -_falling_sigmoid(ta)
    elif kind.name == "squared":
        value = 0.5 * (1.0 - ta) ** 2
        deriv = ta - 1.0
    elif kind.name == "hinge":
        g = kind.gamma
        flat = ta >= 1.0
        linear = ta < 1.0 - g
        value = np.where(flat, 0.0,
                         np.where(linear, (1.0 - ta) - 0.5 * g,
                                  (1.0 - ta) ** 2 / (2.0 * g)))
        deriv = np.where(flat, 0.0, np.where(linear, -1.0, -(1.0 - ta) / g))
    else:  # pragma: no cover - LossKind validates names
        raise ValueError(kind.name)
    return LossEval(_out(t, value), _out(t, deriv))


def loss_smoothness(kind: LossKind) -> float:
    """Global Lipschitz constant of the loss derivative."""
    if kind.name == "sigmoid":
        return 1.0
    if kind.name == "logistic":
        return 0.25
    if kind.name == "squared":
        return 1.0
    if kind.name == "hinge":
        return 1.0 / kind.gamma
    raise ValueError(kind.name)  # pragma: no cover


def make_scalar_derivative(kind: LossKind):
    """Build a math-only scalar derivative function for hot loops.

    Agrees with ``eval_loss(kind, t).derivative`` to double precision; the
    vectorized path stays the reference implementation.
    """

    def falling_sigmoid(t: float) -> float:
        # 1/(1+e^t), overflow-safe on both tails
        if t >= 0.0:
            e = math.exp(-t)
            return e / (1.0 + e)
        return 1.0 / (1.0 + math.exp(t))

    if kind.name == "sigmoid":
        c = SIGMOID_SCALE

        def deriv(t: float) -> float:
            s = falling_sigmoid(t)
            return -c * s * (1.0 - s)
    elif kind.name == "logistic":
        def deriv(t: float) -> float:
            return -falling_sigmoid(t)
    elif kind.name == "squared":
        def deriv(t: float) -> float:
            return t - 1.0
    elif kind.name == "hinge":
        g = kind.gamma

        def deriv(t: float) -> float:
            if t >= 1.0:
                return 0.0
            if t < 1.0 - g:
                return -1.0
            return -(1.0 - t) / g
    else:  # pragma: no cover
        raise ValueError(kind.name)
    return deriv


ALL_ERM_LOSSES = (
    LossKind("sigmoid"),
    LossKind("logistic"),
    LossKind("squared"),
    LossKind("hinge", 0.01),
    LossKind("hinge", 0.1),
    LossKind("hinge", 1.0),
)
