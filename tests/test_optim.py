import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from svrgkit.core import RandomSource
from svrgkit.dataio import Dataset
from svrgkit.losses import LossKind
from svrgkit.objectives import ErmObjective, make_synthetic
from svrgkit.optim import (AdaGradRate, ConstantRate, DivergenceError,
                           PolynomialRate, RunResult, SvrgSchedule,
                           adagrad_step, beta_weights, default_svrg_params,
                           draw_epoch_stop, epoch_end_weights, gd_run,
                           parse_rate, sgd_run, svrg_estimator,
                           svrg_full_run, svrg_simple_run, theory_step)

from quadratic import QuadraticObjective


class TestBetaWeights:
    def test_m0_equals_one(self):
        assert beta_weights(1).tolist() == [1.0]

    def test_m0_equals_two(self):
        got = beta_weights(2)
        assert got[0] == 1.0
        assert math.isclose(got[1], 2.0 / 3.0, rel_tol=1e-12)

    def test_m0_equals_four(self):
        got = beta_weights(4)
        assert np.allclose(got, [1.0, 0.8, 0.64, 0.512], rtol=1e-12)
        assert got[-1] >= 1.0 / math.e

    def test_bounds_sample(self):
        for m0 in (1, 2, 3, 10, 100, 1234, 10_000):
            betas = beta_weights(m0)
            assert betas[0] == 1.0
            assert betas.min() >= 1.0 / math.e
            assert betas.max() <= 1.0
            assert np.all(np.diff(betas) <= 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            beta_weights(0)


class TestEpochEndWeights:
    def test_m0_one_point_mass(self):
        weights, probs = epoch_end_weights(1)
        assert weights.tolist() == [1.0]
        assert probs.tolist() == [1.0]

    def test_m0_two_hand_values(self):
        weights, probs = epoch_end_weights(2)
        assert np.allclose(weights, [2.0 / 3.0, 20.0 / 27.0], rtol=1e-12)
        assert np.allclose(probs, [9.0 / 19.0, 10.0 / 19.0], rtol=1e-12)

    def test_m0_three_hand_values(self):
        weights, probs = epoch_end_weights(3)
        assert np.allclose(weights, [0.5625, 0.625, 1.4583333333333333],
                           rtol=1e-12)
        assert np.allclose(probs, [0.21259843, 0.23622047, 0.55118110],
                           atol=5e-9)

    def test_probabilities_normalized_and_positive(self):
        for m0 in (1, 2, 5, 17, 256, 4096):
            _, probs = epoch_end_weights(m0)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert probs.min() > 0


class TestDefaultSvrgParams:
    def test_n1000_hand_values(self):
        s = default_svrg_params(1000)
        assert (s.m, s.m0, s.d_sub) == (1000, 500, 2)
        assert theory_step(s, 1.0) == 1.0 / 500.0
        assert s.theory_ok
        # the cube search is exact at the boundary
        assert 377 ** 3 < 54 * 10 ** 6 <= 378 ** 3

    def test_tiny_n_clamps(self):
        s = default_svrg_params(8)
        assert (s.m, s.m0, s.d_sub) == (8, 8, 1)
        assert theory_step(s, 2.0) == 1.0 / 16.0
        assert not s.theory_ok

    def test_m_override_two_n(self):
        s = default_svrg_params(1000, m_override=2000)
        assert s.m >= 2000 and s.d_sub * s.m0 == s.m
        assert s.m0 == -(-s.m // s.d_sub)
        base = default_svrg_params(1000)
        assert s.m0 != base.m0  # recomputed from the overridden m

    def test_rejects_degenerate_smoothness(self):
        # the schedule reads no L; the theory step does
        s = default_svrg_params(10)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                theory_step(s, bad)

    def test_m0_override_forces_divisibility(self):
        s = default_svrg_params(10, m0_override=4)
        assert s.m == 12 and s.m0 == 4 and s.d_sub == 3

    def test_schedule_validation(self):
        with pytest.raises(ValueError):  # m0 does not divide m
            SvrgSchedule(10, 3, True)
        s = SvrgSchedule(12, 4, True)
        assert s.d_sub == 3
        assert np.array_equal(s.end_probs, epoch_end_weights(4)[1])


def two_component_quadratic():
    # f1(x) = x^2/2, f2(x) = x^2/2 + x
    return QuadraticObjective([1.0, 1.0], offsets=[[0.0], [1.0]], dim=1)


class TestSvrgEstimator:
    def test_hand_value(self):
        obj = two_component_quadratic()
        cache = obj.build_snapshot(np.array([0.0]))
        est = svrg_estimator(cache, obj, np.array([1.0]), [1])
        assert est[0] == 1.5  # grad_1(1) - grad_1(0) + mu = 1 - 0 + 0.5

    def test_collapses_at_snapshot(self):
        obj = make_synthetic(12, 3, seed=0, lam=1e-2)
        ref = RandomSource(1).normals(3)
        cache = obj.build_snapshot(ref)
        for batch in ([1], [2, 7], list(range(1, 13))):
            est = svrg_estimator(cache, obj, ref.copy(), batch)
            assert np.linalg.norm(est - cache.full_grad) <= 1e-12

    def test_full_batch_is_exact_gradient(self):
        obj = make_synthetic(10, 3, seed=2, lam=1e-3)
        rng = RandomSource(3)
        cache = obj.build_snapshot(rng.normals(3))
        x = rng.normals(3)
        est = svrg_estimator(cache, obj, x, list(range(1, 11)))
        _, grad = obj.full_value_and_gradient(x)
        assert np.linalg.norm(est - grad) <= 1e-12 * (1 + np.linalg.norm(grad))

    def test_exact_unbiasedness_over_singletons(self):
        obj = make_synthetic(30, 4, seed=4, lam=1e-3)
        rng = RandomSource(5)
        cache = obj.build_snapshot(rng.normals(4))
        x = rng.normals(4)
        avg = np.mean([svrg_estimator(cache, obj, x, [i])
                       for i in range(1, obj.n + 1)], axis=0)
        _, grad = obj.full_value_and_gradient(x)
        assert np.linalg.norm(avg - grad) <= 1e-12 * (1 + np.linalg.norm(grad))

    def test_generic_and_fused_paths_agree(self):
        obj = make_synthetic(10, 3, seed=6, lam=1e-2)
        rng = RandomSource(7)
        cache = obj.build_snapshot(rng.normals(3))
        x = rng.normals(3)
        fused = svrg_estimator(cache, obj, x, [3, 8])
        generic = svrg_estimator(obj.build_snapshot(cache.x_ref,
                                                    mode="recompute"),
                                 obj, x, [3, 8])
        assert np.linalg.norm(fused - generic) <= 1e-12

    @pytest.mark.parametrize("mode", ["stored", "recompute"])
    def test_consecutive_calls_return_independent_arrays(self, mode):
        # the engine reuses one output buffer; the public call must not
        obj = make_synthetic(10, 3, seed=8, lam=1e-2)
        rng = RandomSource(9)
        cache = obj.build_snapshot(rng.normals(3), mode=mode)
        first = svrg_estimator(cache, obj, rng.normals(3), [2, 5])
        kept = first.copy()
        second = svrg_estimator(cache, obj, rng.normals(3), [7])
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, cache.full_grad)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    def test_empty_batch_rejected(self):
        obj = two_component_quadratic()
        cache = obj.build_snapshot(np.zeros(1))
        with pytest.raises(ValueError):
            svrg_estimator(cache, obj, np.zeros(1), [])
        with pytest.raises(IndexError):
            svrg_estimator(cache, obj, np.zeros(1), [3])


class TestSvrgSimpleRun:
    def test_single_component_is_plain_gd(self):
        obj = QuadraticObjective([1.0], offsets=[[2.0]], dim=1)
        sched = default_svrg_params(1)
        res = svrg_simple_run(obj, np.array([5.0]), sched, epochs=4,
                              batch_size=1, rng=RandomSource(0))
        gd = gd_run(obj, np.array([5.0]), steps=4)
        assert np.allclose(res.trace[-1].objective, gd.trace[-1].objective,
                           rtol=1e-12)

    def test_quadratic_one_exact_step(self):
        obj = QuadraticObjective([1.0], dim=1)  # f(x) = x^2/2, L = 1
        sched = default_svrg_params(1)
        assert theory_step(sched, obj.smoothness) == 1.0
        res = svrg_simple_run(obj, np.array([7.0]), sched, epochs=1,
                              batch_size=1, rng=RandomSource(0))
        assert res.final_value == 0.0
        assert res.output[0] == 0.0  # only post-update iterate is x_1 = 0

    def test_deterministic_replay(self):
        obj = make_synthetic(32, 4, seed=1, lam=1e-3)
        sched = default_svrg_params(obj.n)
        a = svrg_simple_run(obj, np.zeros(4), sched, 3, 2, RandomSource(11))
        b = svrg_simple_run(obj, np.zeros(4), sched, 3, 2, RandomSource(11))
        assert np.array_equal(a.output, b.output)
        assert [r.objective for r in a.trace] == [r.objective for r in b.trace]
        assert [r.passes for r in a.trace] == [r.passes for r in b.trace]
        assert a.grad_evals == b.grad_evals

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        obj = make_synthetic(16, 3, seed=2, loss=LossKind("squared"), lam=0.0)
        sched = default_svrg_params(obj.n)
        with pytest.raises(DivergenceError):
            svrg_simple_run(obj, np.zeros(3), sched, epochs=50, batch_size=1,
                            rng=RandomSource(0), lr=ConstantRate(1e4))


class TestSvrgFullRun:
    def test_m0_one_stop_is_point_mass(self):
        obj = make_synthetic(6, 2, seed=3, lam=1e-2)
        sched = default_svrg_params(obj.n, m0_override=1)
        res = svrg_full_run(obj, np.zeros(2), sched, epochs=5, batch_size=1,
                            rng=RandomSource(1))
        assert res.epoch_stops == [sched.m] * 5

    def test_stop_draws_match_distribution(self):
        # 1e5 standalone draws against the hand-computed m0 = 3 pmf
        sched = default_svrg_params(6, m0_override=3)
        assert sched.m == 6 and sched.m0 == 3
        rng = RandomSource(17)
        draws = np.array([draw_epoch_stop(rng, sched) for _ in range(100_000)])
        counts = [(draws == 6).sum(), (draws == 5).sum(), (draws == 4).sum()]
        expected = np.array([0.21259843, 0.23622047, 0.55118110]) * 100_000
        stat, pvalue = chisquare(counts, expected)
        assert pvalue > 0.01

    def test_engine_stops_match_distribution(self):
        # the runner's own epoch stops follow the same pmf
        obj = make_synthetic(6, 2, seed=4, lam=1e-2)
        sched = default_svrg_params(obj.n, m0_override=3)
        stops = []
        for seed in range(400):
            res = svrg_full_run(obj, np.zeros(2), sched, epochs=5,
                                batch_size=1, rng=RandomSource(seed))
            stops.extend(res.epoch_stops)
        counts = [stops.count(6), stops.count(5), stops.count(4)]
        expected = np.array([0.21259843, 0.23622047, 0.55118110]) * len(stops)
        stat, pvalue = chisquare(counts, expected)
        assert pvalue > 0.01

    def test_reservoir_output_uniform_over_two_iterates(self):
        # m = 2, m0 = 1: the stop is forced to m^s = 2 and the eligible
        # iterates are x_0 (known start) and x_1; each should be returned
        # with frequency 1/2 +- 0.02 over 1e4 trials.
        obj = QuadraticObjective([1.0, 1.0], offsets=[[1.0], [-0.5]], dim=1)
        sched = default_svrg_params(2, m0_override=1)
        assert sched.m == 2 and sched.m0 == 1
        start = np.array([5.0])
        hits_start = 0
        for seed in range(10_000):
            res = svrg_full_run(obj, start, sched, epochs=1, batch_size=1,
                                rng=RandomSource(seed))
            assert res.epoch_stops == [2]
            hits_start += res.output[0] == 5.0
        assert abs(hits_start / 10_000 - 0.5) <= 0.02

    def test_restart_uses_stopped_iterate(self):
        # every epoch restarts from x_{m_s} bit for bit, over stops inside
        # the last sub-epoch and at its end, with m0 = m and with b > 1; the
        # output is one of the eligible iterates x_0 .. x_{m_s - 1}
        seen = set()
        for n, m0, b in ((6, 3, 1), (12, 12, 1), (12, 4, 3)):
            obj = make_synthetic(n, 2, seed=5, lam=1e-2)
            sched = default_svrg_params(obj.n, m0_override=m0)
            assert sched.m == n and sched.m0 == m0
            for seed in range(6):
                res = svrg_full_run(obj, np.zeros(2), sched, epochs=4,
                                    batch_size=b, rng=RandomSource(seed),
                                    record_iterates=True)
                rows = res.epoch_iterates
                for s, m_s in enumerate(res.epoch_stops[:-1]):
                    assert np.array_equal(rows[s + 1][0], rows[s][m_s])
                seen.update(m_s == sched.m for m_s in res.epoch_stops)
                eligible = [r[k] for r, m_s in zip(rows, res.epoch_stops)
                            for k in range(m_s)]
                assert any(np.array_equal(res.output, x) for x in eligible)
        assert seen == {True, False}

    def test_deterministic_replay(self):
        obj = make_synthetic(24, 3, seed=6, lam=1e-3)
        sched = default_svrg_params(obj.n, m0_override=6)
        a = svrg_full_run(obj, np.zeros(3), sched, 3, 2, RandomSource(8))
        b = svrg_full_run(obj, np.zeros(3), sched, 3, 2, RandomSource(8))
        assert np.array_equal(a.output, b.output)
        assert a.epoch_stops == b.epoch_stops
        assert [r.grad_norm_sq for r in a.trace] == \
            [r.grad_norm_sq for r in b.trace]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(m0=st.integers(1, 4), d_sub=st.integers(1, 3))
def test_reservoir_output_uniform_over_eligible_iterates(m0, d_sub):
    # One epoch, many seeds: the output is one of the eligible iterates,
    # x_1 .. x_m for svrg_simple_run and x_0 .. x_{m_s - 1} for
    # svrg_full_run, and its position is uniform among them for each m_s.
    obj = make_synthetic(8, 2, seed=3, lam=1e-2)
    sched = default_svrg_params(obj.n, m_override=m0 * d_sub,
                                m0_override=m0)
    m = sched.m
    for run in (svrg_simple_run, svrg_full_run):
        positions: dict[int, list[int]] = {}
        for seed in range(1000):
            res = run(obj, np.zeros(2), sched, epochs=1, batch_size=1,
                      rng=RandomSource(seed), record_iterates=True)
            rows = res.epoch_iterates[0]
            eligible = (range(res.epoch_stops[0]) if res.epoch_stops
                        else range(1, m + 1))
            at = [k for k in range(m + 1)
                  if np.array_equal(rows[k], res.output)]
            assert len(at) == 1 and at[0] in eligible, (run, seed, at)
            positions.setdefault(len(eligible), []).append(
                at[0] - eligible.start)
        for size, seen in positions.items():
            if size > 1 and len(seen) >= 5 * size:
                counts = np.bincount(seen, minlength=size)
                assert chisquare(counts).pvalue > 1e-3, (run, size, counts)


def sparse_erm(n: int, d: int, nnz: int, seed: int) -> ErmObjective:
    rng = np.random.default_rng(seed)
    cols = np.sort(np.stack([rng.choice(d, nnz, replace=False)
                             for _ in range(n)]), axis=1)
    labels = np.where(np.arange(n) % 2 == 0, 1, -1)
    data = Dataset.from_csr(np.arange(n + 1) * nnz, cols.ravel(),
                            rng.standard_normal(n * nnz) / math.sqrt(nnz),
                            labels, dim=d)
    return ErmObjective(data, LossKind("logistic"), lam=1e-3)


class TestRunMemory:
    # Peak traced allocation of a whole run, in d-vectors of float64.  The
    # run must hold a fixed number of them whatever m0 is: no copies of the
    # last sub-epoch's iterates and no per-step temporaries pile up.
    @pytest.mark.parametrize("run", [svrg_full_run, svrg_simple_run])
    @pytest.mark.parametrize("m0", [100, 400])
    @pytest.mark.parametrize("accounting", ["stored", "recompute"])
    def test_peak_is_a_few_vectors(self, run, m0, accounting):
        d = 20_000
        obj = sparse_erm(200, d, 5, seed=0)
        sched = default_svrg_params(obj.n, m_override=400,
                                    m0_override=m0)
        x0 = np.zeros(d)
        tracemalloc.start()
        try:
            run(obj, x0, sched, epochs=2, batch_size=1, rng=RandomSource(1),
                accounting=accounting)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * d, peak / (8 * d)


class TestPassAccounting:
    @pytest.mark.parametrize("n,b,m0,epochs", [
        (12, 1, 4, 3), (12, 3, 4, 2), (20, 5, 4, 1), (16, 2, 8, 4),
        (30, 10, 5, 2), (8, 8, 4, 3), (24, 1, 6, 5), (18, 6, 3, 1),
        (40, 4, 10, 2), (10, 2, 5, 3),
    ])
    def test_stored_mode_epoch_cost(self, n, b, m0, epochs):
        obj = make_synthetic(n, 3, seed=n + b, lam=1e-3)
        sched = default_svrg_params(n, m0_override=m0)
        res = svrg_full_run(obj, np.zeros(3), sched, epochs, b,
                            RandomSource(0), accounting="stored")
        m = sched.m
        # integer ledger: epochs snapshots + inner work + final evaluation
        assert res.grad_evals == epochs * (n + m * b) + n
        snapshots = [r for r in res.trace[:-1]]
        for s, rec in enumerate(snapshots):
            expected_evals = s * (n + m * b) + n
            assert rec.passes == expected_evals / n
        assert res.trace[-1].passes == res.grad_evals / n

    def test_recompute_mode_epoch_cost(self):
        n, b, epochs = 12, 3, 2
        obj = make_synthetic(n, 3, seed=9, lam=1e-3)
        sched = default_svrg_params(n, m0_override=4)
        res = svrg_full_run(obj, np.zeros(3), sched, epochs, b,
                            RandomSource(0), accounting="recompute")
        m = sched.m
        assert res.grad_evals == epochs * (n + 2 * m * b) + n
        assert res.trace[1].passes == (n + 2 * m * b + n) / n

    def test_gd_one_pass_per_step(self):
        obj = make_synthetic(10, 3, seed=1, lam=1e-2)
        res = gd_run(obj, np.zeros(3), steps=7)
        assert [r.passes for r in res.trace] == [float(k) for k in
                                                 range(1, 9)]
        assert res.grad_evals == 8 * 10

    def test_sgd_batch_fraction_passes(self):
        n, b, iters = 20, 5, 12
        obj = make_synthetic(n, 3, seed=2, lam=1e-2)
        res = sgd_run(obj, np.zeros(3), iters, b, RandomSource(0),
                      ConstantRate(0.1))
        assert res.grad_evals == iters * b + n  # final exact eval
        assert res.trace[-1].passes == (iters * b + n) / n

    def test_eval_checkpoints_charged_honestly(self):
        n, b, iters = 12, 2, 30
        obj = make_synthetic(n, 3, seed=3, lam=1e-3)
        res = sgd_run(obj, np.zeros(3), iters, b, RandomSource(0),
                      ConstantRate(0.1), eval_every=10)
        # 30 steps of b + 2 mid checkpoints (none at 30) + final eval
        assert res.grad_evals == iters * b + 2 * n + n
        assert [r.epoch for r in res.trace] == [10, 20, 30]
        assert [r.passes for r in res.trace] == [
            (10 * b + n) / n, (20 * b + 2 * n) / n, (30 * b + 3 * n) / n]


class TestEarlyExit:
    # Each run stops on target_grad_sq; the returned point must be the one
    # whose exact gradient norm certified the stop.
    @pytest.mark.parametrize("run", [
        lambda obj, sched: gd_run(obj, np.zeros(5), 10_000,
                                  target_grad_sq=0.05),
        lambda obj, sched: sgd_run(obj, np.zeros(5), 3000, 1, RandomSource(0),
                                   ConstantRate(0.5), eval_every=50,
                                   target_grad_sq=1e-3),
        lambda obj, sched: svrg_simple_run(obj, np.zeros(5), sched, 30, 1,
                                           RandomSource(2),
                                           target_grad_sq=0.05),
        lambda obj, sched: svrg_full_run(obj, np.zeros(5), sched, 30, 1,
                                         RandomSource(2),
                                         target_grad_sq=0.05),
        lambda obj, sched: svrg_full_run(obj, np.zeros(5), sched, 30, 1,
                                         RandomSource(2), probe_stride=16,
                                         target_grad_sq=0.05),
    ], ids=["gd", "sgd-random", "svrg1", "svrg2", "svrg2-probed"])
    def test_returns_the_certified_point(self, run):
        obj = make_synthetic(256, 5, 1)
        res = run(obj, default_svrg_params(obj.n))
        assert res.evals_to_target is not None
        grad = obj.full_value_and_gradient(res.output)[1]
        assert float(grad @ grad) == res.final_grad_norm_sq


def _probe_target(obj, sched):
    # the smallest probed value inside epoch 1, below its snapshot's
    probe = svrg_full_run(obj, np.zeros(5), sched, 1, 1, RandomSource(2),
                          probe_stride=4).probe_samples
    target = min(p.grad_norm_sq for p in probe if p.k > 0)
    assert target < probe[0].grad_norm_sq
    return target


def _svrg_probe_target(obj, sched):
    res = svrg_full_run(obj, np.zeros(5), sched, 1, 1, RandomSource(2),
                        probe_stride=4, target_grad_sq=_probe_target(obj,
                                                                     sched))
    assert len(res.trace) == 2 and res.evals_to_target is not None
    return res


def test_a_probe_stop_evaluates_its_point_once():
    # The probe's full pass certifies the stop; the final trace row reuses it.
    obj = make_synthetic(64, 5, 1, lam=1e-3)
    sched = default_svrg_params(obj.n)
    target = _probe_target(obj, sched)
    calls, full = [], obj.full_value_and_gradient
    obj.full_value_and_gradient = lambda x: calls.append(x.copy()) or full(x)
    res = svrg_full_run(obj, np.zeros(5), sched, 1, 1, RandomSource(2),
                        probe_stride=4, target_grad_sq=target)
    assert res.final_grad_norm_sq <= target
    assert len(calls) == sum(p.k > 0 for p in res.probe_samples)
    assert sum(np.array_equal(x, res.output) for x in calls) == 1


def _last_iterate(res, sched):
    # the next epoch's start: x_m, or x_{m_s} after a stop draw
    stop = res.epoch_stops[-1] if res.epoch_stops else sched.m
    return res.epoch_iterates[-1][stop]


# Every way a runner returns: (run(obj, sched), the point its last exact
# evaluation is at, if not the output).
_EXITS = {
    "gd": (lambda obj, sched: gd_run(obj, np.zeros(5), 4), None),
    "gd-target": (lambda obj, sched: gd_run(obj, np.zeros(5), 10_000,
                                            target_grad_sq=0.05), None),
    "sgd-eval-every": (lambda obj, sched: sgd_run(
        obj, np.zeros(5), 300, 2, RandomSource(0), ConstantRate(0.5),
        eval_every=64), None),
    "sgd-target": (lambda obj, sched: sgd_run(
        obj, np.zeros(5), 3000, 1, RandomSource(0), ConstantRate(0.5),
        eval_every=50, target_grad_sq=1e-3), None),
    "svrg1": (lambda obj, sched: svrg_simple_run(
        obj, np.zeros(5), sched, 3, 2, RandomSource(3), record_iterates=True),
        _last_iterate),
    "svrg2": (lambda obj, sched: svrg_full_run(
        obj, np.zeros(5), sched, 3, 2, RandomSource(3), record_iterates=True),
        _last_iterate),
    "svrg-snapshot-target": (lambda obj, sched: svrg_full_run(
        obj, np.zeros(5), sched, 3, 1, RandomSource(2),
        target_grad_sq=math.inf), None),
    "svrg-probe-target": (_svrg_probe_target, None),
}


@pytest.mark.parametrize("case", list(_EXITS))
def test_final_fields_are_the_last_exact_evaluation(case):
    # final_value and final_grad_norm_sq are read off the trace's last row,
    # which every exit path logs at the point it ends on
    assert not {"final_value", "final_grad_norm_sq"} & {
        f.name for f in dataclasses.fields(RunResult)}
    obj = make_synthetic(64, 5, 1, lam=1e-3)
    sched = default_svrg_params(obj.n)
    run, point_of = _EXITS[case]
    res = run(obj, sched)
    last = res.trace[-1]
    assert (res.final_value, res.final_grad_norm_sq) == (
        last.objective, last.grad_norm_sq)
    point = res.output if point_of is None else point_of(res, sched)
    value, grad = obj.full_value_and_gradient(point)
    assert math.isclose(res.final_value, value, rel_tol=1e-12)
    assert math.isclose(res.final_grad_norm_sq, float(grad @ grad),
                        rel_tol=1e-12)


# Runs whose evaluations meet no target before the final one, on
# make_synthetic(64, 3, 1): gd's 5 steps, sgd's 256 b=1 iterations and one
# svrg2 epoch of m = n = 64 b=1 steps.
_FINAL_STOPS = {
    "gd": lambda obj, target: gd_run(obj, np.zeros(3), 5,
                                     target_grad_sq=target),
    "sgd": lambda obj, target: sgd_run(obj, np.zeros(3), 256, 1,
                                       RandomSource(0), ConstantRate(0.5),
                                       target_grad_sq=target),
    "svrg2": lambda obj, target: svrg_full_run(
        obj, np.zeros(3), default_svrg_params(obj.n), 1, 1, RandomSource(2),
        target_grad_sq=target),
}


@pytest.mark.parametrize("case,spent", [("gd", 320), ("sgd", 256),
                                        ("svrg2", 128)])
def test_a_final_evaluation_that_meets_the_target_reports_it(case, spent):
    obj = make_synthetic(64, 3, 1)
    run = _FINAL_STOPS[case]
    plain = run(obj, None)
    target = plain.final_grad_norm_sq
    assert all(r.grad_norm_sq > target for r in plain.trace[:-1])
    res = run(obj, target)
    assert [r.grad_norm_sq for r in res.trace] == [
        r.grad_norm_sq for r in plain.trace]
    assert res.evals_to_target == res.grad_evals - obj.n == spent
    value, grad = obj.full_value_and_gradient(res.output)
    assert (value, float(grad @ grad)) == (res.final_value,
                                           res.final_grad_norm_sq)


class TestGdRun:
    def test_quadratic_one_step(self):
        obj = QuadraticObjective([1.0], dim=1)
        res = gd_run(obj, np.array([4.0]), steps=1)
        assert res.output[0] == 0.0
        assert res.final_value == 0.0

    def test_gradient_norm_non_increasing_on_convex_quadratic(self):
        obj = QuadraticObjective([0.5, 1.5, 1.0],
                                 offsets=[[1.0, 0.0], [0.0, -2.0], [0.5, 0.5]],
                                 dim=2)
        res = gd_run(obj, np.array([3.0, -4.0]), steps=30)
        gns = [r.grad_norm_sq for r in res.trace]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(gns, gns[1:]))

    def test_divergence_with_bad_step(self):
        obj = QuadraticObjective([1.0], dim=1)
        with pytest.raises(DivergenceError):
            gd_run(obj, np.array([1.0]), steps=2000, step=2.5)

    def test_target_early_stop_production_cost(self):
        obj = QuadraticObjective([1.0], dim=1)  # |grad(x)|^2 = x^2
        res = gd_run(obj, np.array([4.0]), steps=50, step=0.5,
                     target_grad_sq=1.1)
        # iterates 4, 2, 1: first below sqrt(1.1) is x_2, produced by 2 steps
        assert res.evals_to_target == 2 * obj.n


class TestSgdRun:
    def test_polynomial_rate_value(self):
        lr = PolynomialRate(0.1, 0.5)
        assert math.isclose(lr.value(1000, 1000), 0.1 / math.sqrt(2),
                            rel_tol=1e-12)
        assert math.isclose(lr.value(1000, 1000), 0.070711, abs_tol=5e-7)
        assert PolynomialRate(0.3, 0.0).value(999, 10) == 0.3

    def test_single_component_constant_equals_gd(self):
        obj = QuadraticObjective([1.0], offsets=[[1.5]], dim=1)
        res = sgd_run(obj, np.array([3.0]), iterations=5, batch_size=1,
                      rng=RandomSource(0), lr=ConstantRate(0.25))
        gd = gd_run(obj, np.array([3.0]), steps=5, step=0.25)
        assert math.isclose(res.final_value, gd.final_value, rel_tol=1e-12)

    def test_deterministic(self):
        obj = make_synthetic(16, 3, seed=7, lam=1e-3)
        runs = [sgd_run(obj, np.zeros(3), 40, 2, RandomSource(9),
                        PolynomialRate(0.2, 0.4)) for _ in range(2)]
        assert np.array_equal(runs[0].output, runs[1].output)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence(self):
        obj = make_synthetic(8, 2, seed=9, loss=LossKind("squared"), lam=0.0)
        with pytest.raises(DivergenceError):
            sgd_run(obj, np.zeros(2), 5000, 1, RandomSource(0),
                    ConstantRate(1e5))


class TestAdagrad:
    def test_first_step_normalizes(self):
        acc = np.zeros(2)
        step = adagrad_step(acc, np.array([3.0, 4.0]), alpha=1.0, delta=0.0)
        assert np.allclose(step, [1.0, 1.0], rtol=1e-15)
        assert np.allclose(acc, [9.0, 16.0], rtol=1e-15)

    def test_zero_gradient_is_noop(self):
        acc = np.zeros(2)
        adagrad_step(acc, np.array([1.0, 2.0]), 1.0, 1e-8)
        before = acc.copy()
        step = adagrad_step(acc, np.zeros(2), 1.0, 1e-8)
        assert np.array_equal(step, np.zeros(2))
        assert np.array_equal(acc, before)

    def test_accumulator_non_decreasing(self):
        acc = np.zeros(3)
        rng = RandomSource(0)
        prev = acc.copy()
        for _ in range(50):
            adagrad_step(acc, rng.normals(3), 0.5, 1e-8)
            assert np.all(acc >= prev)
            prev = acc.copy()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            adagrad_step(np.zeros(2), np.ones(3), 1.0, 1e-8)

    def test_runners_need_an_adagrad_alpha(self):
        # An alpha of None stands for 1/L, which the caller fills in.
        obj = make_synthetic(16, 3, seed=10, lam=1e-3)
        sched = default_svrg_params(obj.n)
        for run in (lambda: sgd_run(obj, np.zeros(3), 10, 1, RandomSource(0),
                                    AdaGradRate()),
                    lambda: svrg_full_run(obj, np.zeros(3), sched, 1, 1,
                                          RandomSource(0), lr=AdaGradRate())):
            with pytest.raises(ValueError, match="no alpha"):
                run()

    def test_adagrad_rate_on_svrg(self):
        obj = make_synthetic(16, 3, seed=10, lam=1e-3)
        sched = default_svrg_params(obj.n)
        res = svrg_full_run(obj, np.zeros(3), sched, 2, 1, RandomSource(4),
                            lr=AdaGradRate(alpha=0.5))
        rerun = svrg_full_run(obj, np.zeros(3), sched, 2, 1, RandomSource(4),
                              lr=AdaGradRate(alpha=0.5))
        assert np.array_equal(res.output, rerun.output)
        assert res.final_value < obj.full_value_and_gradient(np.zeros(3))[0]


class TestParseRate:
    def test_forms(self):
        assert parse_rate("constant:0.5") == ConstantRate(0.5)
        assert parse_rate("poly:0.1,0.3") == PolynomialRate(0.1, 0.3)
        assert parse_rate("adagrad:2.0") == AdaGradRate(2.0, 1e-8)
        assert parse_rate("adagrad:2.0,1e-6") == AdaGradRate(2.0, 1e-6)
        # a bare adagrad leaves alpha to the caller, which sets 1/L
        assert parse_rate("adagrad") == AdaGradRate(None, 1e-8)

    def test_rejects_unknown(self):
        for bad in ("momentum:0.9", "poly:0.1", "poly:0.1,0.3,grow",
                    "constant:", "adagrad:", "adagrad:abc", "constant:0",
                    "constant:-1", "constant:inf", "poly:0,0.5",
                    "poly:0.1,-0.5", "adagrad:-1", "adagrad:0.1,-1e-8",
                    # an empty field is no value, not a shifted one
                    "adagrad:,1e-6", "constant:,0.1", "adagrad:0.1,"):
            with pytest.raises(ValueError):
                parse_rate(bad)
