import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svrgkit.core import RandomSource
from svrgkit.losses import ALL_ERM_LOSSES
from svrgkit.objectives import make_synthetic
from svrgkit.optim import (ConstantRate, PolynomialRate, SvrgSchedule,
                           epoch_end_weights, svrg_full_run, svrg_simple_run)

from reference import reference_svrg, stop_probabilities

_RUNNERS = {"svrg1": svrg_simple_run, "svrg2": svrg_full_run}


def close(a, b) -> bool:
    """Agreement to 1e-12 relative, in norm for vectors."""
    return np.linalg.norm(np.subtract(a, b)) <= 1e-12 * np.linalg.norm(b)


@st.composite
def svrg_cases(draw):
    obj = make_synthetic(draw(st.integers(3, 32)), draw(st.integers(1, 4)),
                         draw(st.integers(0, 9)),
                         loss=draw(st.sampled_from(ALL_ERM_LOSSES)), lam=1e-3)
    m0 = draw(st.integers(1, 6))
    # Steps well inside 1/L keep the iteration from amplifying the
    # rounding in which the two estimators differ.
    eta = 0.1 / obj.smoothness
    return dict(
        variant=draw(st.sampled_from(sorted(_RUNNERS))), obj=obj,
        m=m0 * draw(st.integers(1, 4)), m0=m0,
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.sampled_from([1, 3])),
        rate=draw(st.sampled_from([ConstantRate(eta),
                                   PolynomialRate(2 * eta, 0.5)])),
        accounting=draw(st.sampled_from(["stored", "recompute"])),
        probe_stride=draw(st.sampled_from([None, 4])),
        target=draw(st.one_of(st.none(), st.floats(1e-3, 0.5))),
        seed=draw(st.integers(0, 2 ** 16)))


def test_stop_probabilities_match_the_library():
    for m0 in (1, 2, 5, 64):
        assert close(stop_probabilities(m0), epoch_end_weights(m0)[1])


@settings(max_examples=200, deadline=None)
@given(case=svrg_cases())
def test_runners_match_the_literal_reference(case):
    c = dict(case)
    obj, x0 = c.pop("obj"), np.zeros(case["obj"].dim)
    variant, seed = c.pop("variant"), c.pop("seed")
    want = reference_svrg(variant, obj, x0, rng=RandomSource(seed), **c)
    got = _RUNNERS[variant](
        obj, x0, SvrgSchedule(c["m"], c["m0"], False), c["epochs"],
        c["batch_size"], RandomSource(seed), lr=c["rate"],
        accounting=c["accounting"], probe_stride=c["probe_stride"],
        target_grad_sq=c["target"])
    assert close(got.output, want.output)
    assert got.epoch_stops == want.epoch_stops
    assert len(got.trace) == len(want.trace)
    for row, (passes, value, g2, epoch) in zip(got.trace, want.trace):
        assert (row.passes, row.epoch) == (passes, epoch)
        assert math.isclose(row.objective, value, rel_tol=1e-12)
        assert math.isclose(row.grad_norm_sq, g2, rel_tol=1e-12)
    assert [(p.epoch, p.k, p.eligible) for p in got.probe_samples] == [
        (s, k, eligible) for s, k, _, eligible in want.probes]
    for probe, (_, _, g2, _) in zip(got.probe_samples, want.probes):
        assert math.isclose(probe.grad_norm_sq, g2, rel_tol=1e-12)
    assert got.grad_evals == want.grad_evals
    assert got.evals_to_target == want.evals_to_target
