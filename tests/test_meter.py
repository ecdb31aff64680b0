import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svrgkit import cli
from svrgkit.cli import RunConfig, run_configured
from svrgkit.core import RandomSource
from svrgkit.dataio import Dataset
from svrgkit.objectives import TwoLayerNet, make_synthetic
from svrgkit.optim import (ConstantRate, SvrgSchedule, svrg_full_run,
                           svrg_simple_run)

from meter import metered

_RUNNERS = ("gd_run", "sgd_run", "svrg_simple_run", "svrg_full_run")


@st.composite
def metered_cases(draw):
    """A small linear ERM or network instance and a config that runs on it
    (each setting where its optimizer reads it), with an optional target."""
    net = draw(st.booleans())
    optimizer = draw(st.sampled_from(["gd", "sgd", "svrg1", "svrg2"]))
    n = draw(st.integers(4, 16))
    reads = {}
    if optimizer != "gd":
        reads["batch_size"] = draw(st.sampled_from([1, 3]))
    if optimizer == "sgd":
        reads["lr"] = "constant:0.05"
        reads["eval_every"] = draw(st.one_of(st.none(),
                                             st.sampled_from([0.5, 1.0])))
    else:
        reads["lr"] = draw(st.sampled_from([None, "constant:0.05"]))
    if optimizer in ("svrg1", "svrg2"):
        reads["accounting"] = draw(st.sampled_from(
            ["auto", "recompute"] + ([] if net else ["stored"])))
    cfg = RunConfig(
        dataset="in-memory", objective="net" if net else "erm", lam=1e-3,
        optimizer=optimizer, passes=draw(st.floats(1.0, 4.0)),
        seed=draw(st.integers(0, 3)), **reads)
    if net:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        data = Dataset.from_csr(np.arange(0, 3 * n + 1, 3),
                                np.tile(np.arange(3), n),
                                rng.normal(size=3 * n),
                                np.arange(n) % 2 + 1, binary=False)
        obj = TwoLayerNet(data, hidden_dim=3, class_count=2, lam=cfg.lam)
    else:
        obj = make_synthetic(n, 3, draw(st.integers(0, 5)), lam=cfg.lam)
    target = draw(st.one_of(st.none(), st.floats(1e-4, 1.0)))
    return obj, cfg, target


@settings(max_examples=300, deadline=None)
@given(case=metered_cases())
def test_the_ledger_charges_every_gradient_the_runner_computes(case):
    obj, cfg, target = case
    options = {} if target is None else {"target_grad_sq": target}
    with contextlib.ExitStack() as stack:
        meter = stack.enter_context(metered(obj))
        for name in _RUNNERS:
            stack.enter_context(mock.patch.object(
                cli, name, meter.runner(getattr(cli, name), **options)))
        result, _ = run_configured(obj, cfg, RandomSource(cfg.seed))
    # No run here probes, so what a runner computes is what it charges.
    assert meter.inside == result.grad_evals
    # Outside the runner, only a network that steps from L computes
    # gradients: the smoothness probe's 200 pairs, set-up that by design
    # no ledger charges.
    probes = cfg.objective == "net" and cfg.steps_from_smoothness()
    assert meter.outside == (400 if probes else 0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 16), seed=st.integers(0, 5),
       runner=st.sampled_from([svrg_simple_run, svrg_full_run]),
       accounting=st.sampled_from(["stored", "recompute"]),
       batch_size=st.sampled_from([1, 3]), m0=st.integers(1, 4),
       sub_epochs=st.integers(1, 4), epochs=st.integers(1, 3),
       stride=st.integers(1, 6),
       target=st.one_of(st.none(), st.floats(1e-3, 0.5)))
def test_probes_are_computed_and_charged_only_when_they_stop_the_run(
        n, seed, runner, accounting, batch_size, m0, sub_epochs, epochs,
        stride, target):
    obj = make_synthetic(n, 3, seed)
    schedule = SvrgSchedule(m0 * sub_epochs, m0, False)
    with metered(obj) as meter:
        result = meter.runner(runner)(
            obj, np.zeros(obj.dim), schedule, epochs, batch_size,
            RandomSource(seed), lr=ConstantRate(0.1), accounting=accounting,
            probe_stride=stride, target_grad_sq=target)
    # A probe at k = 0 reads its snapshot's evaluation.  One at k > 0 is a
    # full pass that the ledger charges only when it meets the target and
    # ends the run there.
    uncharged = sum(p.k > 0 and not (target is not None
                                     and p.grad_norm_sq <= target)
                    for p in result.probe_samples)
    assert meter.inside == result.grad_evals + obj.n * uncharged
    assert meter.outside == 0
