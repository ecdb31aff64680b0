import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svrgkit import cli, optim
from svrgkit.cli import (OPTIMIZERS, TUNE_OPTIMIZERS, ConfigError, RunConfig,
                         TuneCell, build_objective, build_parser, main,
                         run_configured, select_step_winners)
from svrgkit.core import RandomSource
from svrgkit.dataio import (Dataset, bundled_dataset_path, flip_labels,
                            parse_libsvm, read_trace, split, write_trace)
from svrgkit.losses import LossKind
from svrgkit.objectives import ErmObjective, TwoLayerNet, synthetic_dataset
from svrgkit.optim import (ConstantRate, DivergenceError, default_svrg_params,
                           epochs_for_passes, gd_run, sgd_run, svrg_full_run,
                           svrg_simple_run)
from svrgkit.verify import run_verification

SRC = Path(__file__).resolve().parent.parent / "src"
# Run lengths, step settings and label flips that train no longer takes:
# passes is the only run length, lr the only step setting, and a run's
# labels are its file's (tune takes no --flip-fraction either).
_REMOVED_TRAIN_FLAGS = ("--epochs", "--iterations", "--steps", "--eta",
                        "--smoothness", "--flip-fraction")


def run_cli(*argv):
    return main(list(argv))


def schedule_echo(trace: Path) -> dict:
    line = next(l for l in trace.read_text().splitlines() if "schedule" in l)
    return json.loads(line.split("schedule: ")[1])


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.libsvm"
    rng = np.random.default_rng(0)
    lines = []
    for i in range(40):
        label = "+1" if rng.random() < 0.5 else "-1"
        feats = " ".join(f"{j + 1}:{rng.normal():.4f}" for j in range(3))
        lines.append(f"{label} {feats}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestTrain:
    def test_synthetic_run_writes_trace(self, tmp_path, capsys, synth):
        out = tmp_path / "trace.csv"
        rc = run_cli("train", "--dataset", synth(64, 4, 1), "--optimizer",
                     "svrg2", "--batch-size", "1", "--passes", "6",
                     "--seed", "5", "--lambda", "1e-3", "--out", str(out))
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "final_objective=" in stdout
        records = read_trace(out)
        assert len(records) == 4  # 3 snapshots + final
        passes = [r.passes for r in records]
        assert all(b > a for a, b in zip(passes, passes[1:]))
        assert all(math.isfinite(r.objective) for r in records)

    def test_dataset_run_with_m_override(self, small_file, tmp_path):
        out = tmp_path / "trace.csv"
        rc = run_cli("train", "--dataset", str(small_file), "--optimizer",
                     "svrg1", "--batch-size", "1", "--passes", "9",
                     "--loss", "logistic", "--m", "2n", "--seed", "1",
                     "--out", str(out))
        assert rc == 0
        assert schedule_echo(out)["m"] == 80  # 2n honored

    def test_net_m_default_five_n_over_b(self, tmp_path):
        data = tmp_path / "mc.libsvm"
        rng = np.random.default_rng(1)
        lines = [f"{1 + i % 3} 1:{rng.normal():.3f} 2:{rng.normal():.3f}"
                 for i in range(30)]
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "trace.csv"
        rc = run_cli("train", "--dataset", str(data), "--objective", "net",
                     "--optimizer", "svrg2", "--batch-size", "5",
                     "--passes", "22", "--seed", "2", "--lambda", "1e-3",
                     "--out", str(out))
        assert rc == 0
        assert schedule_echo(out)["m"] == 30  # 5n/b = 5*30/5

    def test_net_pass_budget_counts_recomputed_references(self, tmp_path):
        # Networks recompute reference gradients: with m = 5n/b an epoch
        # costs 1 + 2m*b/n = 11 passes, so a 12-pass budget buys one epoch
        # plus the final exact evaluation, and a 22-pass budget two.
        data = tmp_path / "mc.libsvm"
        rng = np.random.default_rng(1)
        data.write_text("".join(f"{1 + i % 3} 1:{rng.normal():.3f} "
                                f"2:{rng.normal():.3f}\n" for i in range(30)))
        traces = {}
        for budget in ("12", "22"):
            out = tmp_path / f"passes{budget}.csv"
            assert run_cli("train", "--dataset", str(data), "--objective",
                           "net", "--optimizer", "svrg2", "--batch-size", "5",
                           "--seed", "2", "--out", str(out), "--passes",
                           budget) == 0
            traces[budget] = read_trace(out)
        assert traces["12"][-1].passes == 12.0
        assert traces["22"][-1].passes == 23.0
        assert traces["12"] == traces["22"][:2]

    def test_net_starts_off_the_balanced_stationary_point(self, tmp_path):
        # All-zero parameters are exactly stationary on balanced labels;
        # the seeded start is not.
        data = tmp_path / "balanced.libsvm"
        rng = np.random.default_rng(4)
        data.write_text("".join(f"{1 + i % 2} 1:{rng.normal():.3f} "
                                f"2:{rng.normal():.3f}\n" for i in range(20)))
        out = tmp_path / "trace.csv"
        assert run_cli("train", "--dataset", str(data), "--objective", "net",
                       "--optimizer", "svrg1", "--batch-size", "2",
                       "--passes", "11", "--seed", "3", "--out", str(out)) == 0
        assert read_trace(out)[0].grad_norm_sq > 1e-8

    def test_rerun_byte_identical_every_optimizer(self, tmp_path, synth):
        for opt, lr in (("gd", None), ("sgd", "poly:0.3,0.5"),
                        ("svrg1", None), ("svrg2", None),
                        ("svrg2", "adagrad")):
            extra = [] if opt == "gd" else ["--batch-size", "4"]
            if lr:
                extra += ["--lr", lr]
            outs = []
            for tag in "ab":
                out = tmp_path / f"{opt}_{lr}_{tag}.csv"
                rc = run_cli("train", "--dataset", synth(64, 4, 1),
                             "--optimizer", opt, "--passes", "8",
                             "--seed", "3", "--lambda", "1e-3",
                             "--out", str(out), *extra)
                assert rc == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"{opt} trace not reproducible"

    def test_flip_fraction_applies_to_dataset(self, small_file, tmp_path):
        # Flipped labels are a file that svrgkit flip writes, and train
        # reads it as any other: gd on it is gd on the flipped rows.
        flipped = tmp_path / "flipped.libsvm"
        assert run_cli("flip", str(small_file), "--fraction", "0.25",
                       "--seed", "1", "--out", str(flipped)) == 0
        finals = []
        for data in (small_file, flipped):
            out = tmp_path / f"{data.stem}.csv"
            rc = run_cli("train", "--dataset", str(data),
                         "--optimizer", "gd", "--passes", "3",
                         "--loss", "logistic", "--seed", "1",
                         "--out", str(out))
            assert rc == 0
            finals.append(read_trace(out)[-1].objective)
        obj = ErmObjective(flip_labels(parse_libsvm(small_file), 0.25,
                                       RandomSource(1)),
                           LossKind("logistic"), lam=0.0)
        result = gd_run(obj, np.zeros(obj.dim), 3, 1.0 / obj.smoothness)
        assert finals[1] == result.final_value != finals[0]

    def test_config_file_with_flag_override(self, tmp_path, capsys, synth):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": synth(32, 3, 2), "optimizer": "gd",
            "passes": 2, "lambda": 1e-3, "seed": 9}))
        rc = run_cli("train", "--config", str(cfg), "--passes", "4")
        assert rc == 0

    def test_config_file_is_utf8_json(self, tmp_path, capsys, synth):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"optimizer": "gd", "passes": 2} \xff')
        assert run_cli("train", "--config", str(cfg), "--dataset",
                       synth(16, 2, 1)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}"), err

    def test_train_reads_no_tune_section(self, tmp_path, capsys, synth):
        # a setting the run does not read is a config error; an empty
        # section equals the default
        cfg = tmp_path / "cfg.json"
        argv = ("train", "--config", str(cfg), "--dataset", synth(16, 2, 1),
                "--optimizer", "gd", "--passes", "2")
        for tune, rc in (({}, 0), (5, 1), ({"bogus": 1}, 1),
                         ({"passes": 2}, 1)):
            cfg.write_text(json.dumps({"tune": tune}))
            capsys.readouterr()
            assert run_cli(*argv) == rc, tune
            assert ("tune" in capsys.readouterr().err) == bool(rc), tune

    def test_config_error_exit_code(self, small_file, tmp_path, capsys, synth):
        assert run_cli("train", "--dataset", synth(16, 2, 1), "--optimizer",
                       "sgd", "--passes", "2") == 1  # sgd needs lr
        assert run_cli("train", "--optimizer", "gd", "--passes", "1") == 1
        assert run_cli("train", "--dataset", synth(16, 2, 1), "--optimizer",
                       "nope", "--passes", "1") == 1
        assert run_cli("train", "--dataset", synth(8, 2, 1), "--optimizer",
                       "svrg1", "--batch-size", "100", "--passes", "2") == 1
        # zero or negative numbers are rejected, not read as "absent"
        for bad in (("gd", "--lr", "constant:0", "--passes", "2"),
                    ("svrg2", "--m0", "0", "--passes", "2"),
                    ("gd", "--passes", "0"),
                    ("sgd", "--lr", "constant:0.1", "--batch-size", "0",
                     "--passes", "1"),
                    ("sgd", "--lr", "constant:0.1", "--passes", "-3"),
                    ("svrg1", "--passes", "-1"),
                    ("sgd", "--lr", "constant:0.1", "--passes", "4",
                     "--eval-every", "0"),
                    ("svrg1", "--m", "0", "--passes", "2"),
                    ("gd", "--lambda", "-1", "--passes", "2")):
            assert run_cli("train", "--dataset", synth(16, 2, 1),
                           "--optimizer", *bad) == 1, bad
        # non-finite numbers, and an empty lr (not an unset one): exit 1
        # naming the key, not a traceback, a diverged run or a default step
        capsys.readouterr()
        for key, bad in (("lr", ("svrg1", "--lr", "constant:inf",
                                 "--passes", "2")),
                         ("lr", ("svrg1", "--lr", "", "--passes", "2")),
                         ("passes", ("svrg1", "--passes", "inf")),
                         ("passes", ("gd", "--passes", "inf")),
                         ("passes", ("sgd", "--lr", "constant:0.1",
                                     "--passes", "inf")),
                         # finite, but P*n/b iterations overflow a float
                         ("passes", ("sgd", "--lr", "constant:0.1",
                                     "--batch-size", "1", "--passes",
                                     "1e308")),
                         ("eval_every", ("sgd", "--lr", "constant:0.1",
                                         "--batch-size", "1", "--passes",
                                         "2", "--eval-every", "1e308")),
                         ("lambda", ("gd", "--lambda", "inf", "--passes",
                                     "2")),
                         # AdaGrad SVRG is svrg2 --lr adagrad, and sgd reads
                         # no smoothness, so its adagrad needs an alpha
                         ("svrg3", ("svrg3", "--batch-size", "2",
                                    "--passes", "2")),
                         ("svrg4", ("svrg4", "--passes", "2")),
                         ("adagrad:ALPHA", ("sgd", "--lr", "adagrad",
                                            "--batch-size", "2",
                                            "--passes", "1"))):
            assert run_cli("train", "--dataset", synth(16, 2, 1),
                           "--optimizer", *bad) == 1, bad
            assert key in capsys.readouterr().err, bad
        # malformed values fail at the boundary, not as tracebacks or runs
        for bad in (("--loss", "bogus"), ("--loss", "hinge:0"),
                    ("--loss", "hinge:inf"),
                    ("--lr", "bogus"),
                    ("--lr", "poly:0.1"), ("--lr", "adagrad:abc"),
                    ("--lr", "constant:-1"), ("--lr", "poly:0.1,-1"),
                    ("--lr", "adagrad:0.1,-1"),
                    ("--optimizer", "svrg1", "--m", "0n")):
            assert run_cli("train", "--dataset", synth(16, 2, 1),
                           "--batch-size", "2", "--optimizer", "sgd",
                           "--passes", "1", "--lr", "constant:0.1",
                           *bad) == 1, bad
        multiclass = tmp_path / "mc.libsvm"
        multiclass.write_text("".join(f"{1 + i % 3} 1:{i}.5\n"
                                      for i in range(12)))
        assert run_cli("train", "--dataset", str(multiclass), "--objective",
                       "net", "--optimizer", "svrg2", "--accounting",
                       "stored", "--passes", "11", "--batch-size", "2") == 1
        # a network's classes are the data's labels: no net key sets them
        net2 = tmp_path / "net2.json"
        net2.write_text(json.dumps({"net": {"classes": 3}}))
        capsys.readouterr()
        assert run_cli("train", "--config", str(net2), "--dataset",
                       str(multiclass), "--objective", "net", "--optimizer",
                       "svrg1", "--passes", "11", "--batch-size", "1") == 1
        assert "unknown net key 'classes'" in capsys.readouterr().err
        # degenerate network data: one class gives a smoothness estimate
        # of 0, and an empty file has nothing to estimate it from
        one_class = tmp_path / "one.libsvm"
        one_class.write_text("1 1:0.5\n")
        empty = tmp_path / "empty.libsvm"
        empty.write_text("")
        for data, opt in ((one_class, ("gd", "--passes", "1")),
                          (one_class, ("svrg1", "--batch-size", "1",
                                       "--passes", "11")),
                          (empty, ("gd", "--passes", "1"))):
            assert run_cli("train", "--dataset", str(data), "--objective",
                           "net", "--optimizer", *opt) == 1, (data, opt)
        # all-zero features: dim 0, so every row is full, and smoothness 0
        zeros = tmp_path / "zeros.libsvm"
        zeros.write_text("+1 1:0\n-1\n")
        for opt in (("gd", "--passes", "1"),
                    ("svrg1", "--batch-size", "1", "--passes", "2")):
            assert run_cli("train", "--dataset", str(zeros), "--optimizer",
                           *opt) == 1, opt
        # an epoch's index block over the bound names m and b (10^15
        # indices exceed any address space, so an unbounded draw fails at
        # once rather than touching memory)
        capsys.readouterr()
        for m, m0 in (("1000000000000000", "1"), ("16", "1000000000000000")):
            assert run_cli("train", "--dataset", synth(16, 2, 1),
                           "--optimizer", "svrg1", "--batch-size", "1",
                           "--m", m, "--m0", m0, "--passes", "1") == 1, (m, m0)
            err = capsys.readouterr().err
            assert "m=1000000000000000" in err and "b=1" in err, err
        for top, tune in (({}, {"train_fraction": 0.0}),
                          ({}, {"train_fraction": 1.0}),
                          ({"passes": 2}, {}), ({"iterations": 5}, {}),
                          ({"epochs": 1}, {}), ({"steps": 3}, {}),
                          ({"optimizer": "gd"}, {})):
            cfg = tmp_path / "tune.json"
            cfg.write_text(json.dumps({
                "dataset": str(small_file), "optimizer": "sgd", **top,
                "tune": {"passes": 1, "lambdas": [1e-3], "alphas": [0.1],
                         "betas": [0.0], **tune}}))
            assert run_cli("tune", "--config", str(cfg)) == 1, (top, tune)
        # config values of the wrong JSON type: exit 1 naming the key (an
        # int is no bool and no float; a float may be written as an int)
        capsys.readouterr()
        train = {"dataset": synth(16, 2, 1),
                 "optimizer": "svrg1", "passes": 2, "batch_size": 2}
        for key, bad in (("loss", {"loss": 5}), ("lr", {"lr": 5}),
                         ("dataset", {"dataset": 5}),
                         ("passes", {"passes": "2"}), ("seed", {"seed": "a"}),
                         ("m0", {"m0": 2.5}), ("seed", {"seed": 1.5}),
                         ("batch_size", {"batch_size": True}),
                         ("lambda", {"lambda": "0.1"}), ("m", {"m": 2.5}),
                         ("net.hidden", {"net": {"hidden": 2.5}}),
                         ("hiden", {"net": {"hiden": 4}}),
                         ("svrg4", {"optimizer": "svrg4"})):
            cfg = tmp_path / "train.json"
            cfg.write_text(json.dumps({**train, **bad}))
            assert run_cli("train", "--config", str(cfg)) == 1, bad
            assert key in capsys.readouterr().err, bad
        cfg.write_text(json.dumps({**train, "lambda": 0}))
        assert run_cli("train", "--config", str(cfg)) == 0
        for key, bad in (("pases", {"pases": 2}), ("passes", {"passes": "2"}),
                         ("alphas", {"alphas": 0.1}),
                         ("train_fraction", {"train_fraction": "0.8"}),
                         ("lambdas", {"lambdas": ["1e-3"]})):
            cfg = tmp_path / "tune.json"
            cfg.write_text(json.dumps({
                "dataset": str(small_file), "optimizer": "sgd",
                "tune": {"passes": 1, "lambdas": [1e-3], "alphas": [0.1],
                         "betas": [0.0], **bad}}))
            assert run_cli("tune", "--config", str(cfg)) == 1, bad
            assert key in capsys.readouterr().err, bad

    def test_negative_seed_is_config_error(self, small_file, tmp_path, capsys,
                                           synth):
        out = str(tmp_path / "o")
        for argv in (("train", "--dataset", synth(16, 2, 1), "--optimizer",
                      "gd", "--passes", "1"),
                     ("tune", "--dataset", str(small_file), "--optimizer",
                      "sgd"),
                     ("verify",), ("synth", "--n", "4", "--d", "2",
                                   "--out", out),
                     ("flip", str(small_file), "--fraction", "0.5",
                      "--out", out),
                     ("split", str(small_file), "--out-train", out,
                      "--out-validation", out)):
            assert run_cli(*argv, "--seed", "-1") == 1, argv
            assert "seed" in capsys.readouterr().err, argv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": synth(16, 2, 1),
                                   "optimizer": "gd", "passes": 1,
                                   "seed": -1}))
        assert run_cli("train", "--config", str(cfg)) == 1
        assert "seed" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, synth):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": synth(8, 2, 1),
                                   "optimizr": "gd"}))
        assert run_cli("train", "--config", str(cfg)) == 1
        for top in (5, [], "gd"):  # a config is a JSON object
            cfg.write_text(json.dumps(top))
            assert run_cli("train", "--config", str(cfg)) == 1, top

    def test_softplus_is_an_unknown_loss(self, tmp_path, capsys, synth):
        # log(1 + e^t) of the margin is the logistic loss of -t, so ERM on
        # it fits a wrong-sign classifier; no run takes it
        run = {"dataset": synth(16, 2, 1), "optimizer": "gd",
               "passes": 2, "out": str(tmp_path / "trace.csv")}
        cfg = tmp_path / "cfg.json"
        for loss in ("logistic", "softplus"):
            cfg.write_text(json.dumps({**run, "loss": loss}))
            rc = 0 if loss == "logistic" else 1
            assert run_cli("train", "--config", str(cfg)) == rc, loss
            assert run_cli("train", "--dataset", synth(16, 2, 1),
                           "--optimizer", "gd", "--passes", "2", "--loss",
                           loss, "--out", run["out"]) == rc, loss
        assert capsys.readouterr().err.count("unknown loss 'softplus'") == 2

    def test_removed_run_keys_exit_1(self, tmp_path, capsys, synth):
        # Each removed key, with a value its optimizer used to read, next
        # to a run that succeeds without it.
        heads = {"gd": {"optimizer": "gd"},
                 "sgd": {"optimizer": "sgd", "lr": "constant:0.1",
                         "batch_size": 2},
                 "svrg1": {"optimizer": "svrg1", "batch_size": 2}}
        cfg = tmp_path / "cfg.json"
        for key, optimizer, value in (("steps", "gd", 2),
                                      ("iterations", "sgd", 5),
                                      ("epochs", "svrg1", 2),
                                      ("eta", "svrg1", 0.1),
                                      ("eta", "gd", 0.1)):
            run = {"dataset": synth(16, 2, 1), "passes": 2,
                   **heads[optimizer]}
            cfg.write_text(json.dumps(run))
            assert run_cli("train", "--config", str(cfg)) == 0
            assert run_cli("train", "--config", str(cfg), f"--{key}",
                           str(value)) == 1, key
            assert f"--{key}" in capsys.readouterr().err, key
            cfg.write_text(json.dumps({**run, key: value}))
            assert run_cli("train", "--config", str(cfg)) == 1, key
            assert repr(key) in capsys.readouterr().err, key

    def test_gd_takes_a_constant_lr_only(self, tmp_path, capsys, synth):
        out = tmp_path / "gd.csv"
        argv = ("train", "--dataset", synth(16, 2, 1), "--optimizer", "gd",
                "--passes", "3", "--out", str(out))
        for spec in ("poly:1,2", "adagrad:0.1"):
            assert run_cli(*argv, "--lr", spec) == 1, spec
            assert "gd takes a constant step" in capsys.readouterr().err
        assert run_cli(*argv, "--lr", "constant:0.25") == 0
        assert schedule_echo(out)["step"] == 0.25
        obj = ErmObjective(synthetic_dataset(16, 2, 1), LossKind("sigmoid"))
        result = gd_run(obj, np.zeros(2), 3, step=0.25)
        assert read_trace(out) == [replace(r, wall_seconds=0.0)
                                   for r in result.trace]

    def test_svrg_schedule_echoes_the_constant_step(self, tmp_path, synth):
        out = tmp_path / "svrg.csv"
        argv = ("train", "--dataset", synth(64, 3, 1), "--optimizer", "svrg2",
                "--batch-size", "1", "--passes", "4", "--seed", "2",
                "--out", str(out))
        assert run_cli(*argv) == 0
        theory = schedule_echo(out)
        obj = ErmObjective(synthetic_dataset(64, 3, 1), LossKind("sigmoid"))
        assert theory["eta"] == 1.0 / (theory["m0"] * obj.smoothness)
        assert run_cli(*argv, "--lr", "constant:0.5") == 0
        echo = schedule_echo(out)
        assert echo["eta"] == 0.5
        # The run steps with the echoed ConstantRate over the theory
        # schedule.
        sched = default_svrg_params(64, m_override=64)
        result = svrg_full_run(obj, np.zeros(3), sched, echo["epochs"], 1,
                               RandomSource(2), lr=ConstantRate(0.5))
        assert read_trace(out) == [replace(r, wall_seconds=0.0)
                                   for r in result.trace]

    def test_svrg_settings_are_config_errors_for_gd_and_sgd(
            self, small_file, tmp_path, capsys, synth):
        for optimizer, extra in (("gd", ()), ("sgd", ("--lr", "constant:0.1",
                                                      "--batch-size", "1"))):
            argv = ("train", "--dataset", synth(64, 3, 1), "--optimizer",
                    optimizer, "--passes", "1", *extra)
            assert run_cli(*argv, "--accounting", "auto") == 0
            for key, value in (("m", "5"), ("m", "2n"), ("m0", "2"),
                               ("accounting", "recompute"),
                               ("accounting", "stored")):
                assert run_cli(*argv, f"--{key}", value) == 1, (key, value)
                err = capsys.readouterr().err
                assert (f"optimizer {optimizer} on objective erm does not "
                        f"read {key}") in err, err
        # tune hands m to SVRG cells only, so an sgd grid refuses one
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps({"tune": {
            "passes": 1, "lambdas": [1e-3], "alphas": [0.1]}}))
        argv = ("tune", "--config", str(cfg), "--dataset", str(small_file),
                "--batch-size", "4")
        assert run_cli(*argv, "--optimizer", "sgd") == 0
        assert run_cli(*argv, "--optimizer", "sgd", "--m", "2n") == 1
        assert run_cli(*argv, "--optimizer", "svrg1", "--m", "2n") == 0

    def test_synthetic_size_is_bounded_before_allocation(
            self, tmp_path, capsys, monkeypatch):
        def allocate(*args):
            raise AssertionError(f"synthetic_dataset{args} was called")

        monkeypatch.setattr(cli, "synthetic_dataset", allocate)
        out = str(tmp_path / "synth.libsvm")
        assert run_cli("synth", "--n", "1000000000", "--d", "1000000",
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert "n=1000000000" in err and "d=1000000" in err, err
        # The bound is on n*d: sizes at it reach the allocation, and one
        # past it does not.
        for n, d in ((cli._MAX_ENTRIES, 1), (2 ** 13, cli._MAX_ENTRIES >> 13)):
            with pytest.raises(AssertionError, match=f"\\({n}, {d}, 0\\)"):
                run_cli("synth", "--n", str(n), "--d", str(d), "--out", out)
        assert run_cli("synth", "--n", str((cli._MAX_ENTRIES >> 14) + 1),
                       "--d", str(2 ** 14), "--out", out) == 1
        assert f"d={2 ** 14}" in capsys.readouterr().err

    def test_network_size_is_bounded_before_allocation(
            self, tmp_path, capsys, monkeypatch):
        # A network holds dense n*d features and hidden*(d+1) +
        # classes*(hidden+1) parameters; both are bounded before
        # TwoLayerNet is built.
        def construct(ds, **kwargs):
            raise AssertionError(f"TwoLayerNet({kwargs}) was called")

        monkeypatch.setattr(cli, "TwoLayerNet", construct)
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"net": {"hidden": 10 ** 9}}))
        narrow = tmp_path / "narrow.libsvm"
        narrow.write_text("1 1:1\n2 2:1\n")
        assert run_cli("train", "--dataset", str(narrow), "--config",
                       str(net), "--objective", "net", "--optimizer", "gd",
                       "--passes", "1") == 1
        assert "1000000000 hidden units" in capsys.readouterr().err

        monkeypatch.setattr(cli, "_MAX_ENTRIES", 1000)

        def build(rows, **net):
            path = tmp_path / "rows.libsvm"
            path.write_text("".join(f"{label} {col}:1\n"
                                    for label, col in rows))
            cfg = RunConfig(dataset=str(path), objective="net",
                            optimizer="gd", net=net)
            return cli.build_objective(cfg)

        wide = [(1, 1), (2, 501)]          # n*d = 2*501
        with pytest.raises(ConfigError, match="n=2 rows of d=501"):
            build(wide, hidden=1)
        with pytest.raises(AssertionError, match="'hidden_dim': 1"):
            build([(1, 1), (2, 500)], hidden=1)
        # 200*3 + 2*201 and, on labels up to 500, 1*3 + 500*2 parameters,
        # then 199*3 + 2*200
        narrow = [(1, 1), (2, 2)]
        for rows, hidden in ((narrow, 200), ([(1, 1), (500, 2)], 1)):
            with pytest.raises(ConfigError, match="features or parameters"):
                build(rows, hidden=hidden)
        with pytest.raises(AssertionError, match="'hidden_dim': 199"):
            build(narrow, hidden=199)

    def test_non_finite_labels_exit_1(self, tmp_path, capsys):
        data = tmp_path / "labels.libsvm"
        for label, objective in (("inf", "erm"), ("nan", "net")):
            data.write_text(f"1 1:1\n{label} 1:2\n2 1:3\n")
            assert run_cli("train", "--dataset", str(data), "--objective",
                           objective, "--optimizer", "gd", "--passes",
                           "1") == 1
            assert "line 2: non-finite label" in capsys.readouterr().err

    def test_class_label_past_int64_exits_1(self, tmp_path, capsys):
        data = tmp_path / "labels.libsvm"
        data.write_text("1 1:1\n1e300 1:2\n2 1:3\n")
        assert run_cli("train", "--dataset", str(data), "--objective", "net",
                       "--optimizer", "gd", "--passes", "1") == 1
        assert "line 2: class label '1e300'" in capsys.readouterr().err

    def test_stop_draw_weights_count_toward_the_epoch_bound(
            self, capsys, monkeypatch, synth):
        # An m*b index block within the bound, whose 3*m0 stop-draw
        # weights take the epoch over it: with m0 given, and with the
        # default m0 (at most m).  The check allocates nothing.
        def allocate(m0):
            raise AssertionError(f"epoch_end_weights({m0}) was called")

        monkeypatch.setattr(optim, "epoch_end_weights", allocate)
        half, quarter = cli._MAX_ENTRIES // 2, cli._MAX_ENTRIES // 4
        for flag, value in (("--m0", half), ("--m", quarter + 1)):
            assert run_cli("train", "--dataset", synth(16, 2, 1),
                           "--optimizer", "svrg2", "--batch-size", "1", flag,
                           str(value), "--passes", "1") == 1, flag
            err = capsys.readouterr().err
            assert f"m={value}" in err and "stop-draw weights" in err, err

    def test_eval_every_counts_passes(self, small_file, tmp_path, capsys,
                                      synth):
        # --eval-every P checkpoints sgd every P passes, turned into whole
        # iterations as --passes is, and at least one.  The trace's epoch
        # column holds the iteration or epoch count.
        out = tmp_path / "trace.csv"

        def epochs(*argv):
            assert run_cli("train", "--dataset", synth(64, 3, 1), "--seed",
                           "1", "--out", str(out), *argv) == 0, argv
            return [r.epoch for r in read_trace(out)]

        # sgd, n=64, b=4: 16 iterations a pass, 32 in the run
        sgd = ("--optimizer", "sgd", "--lr", "constant:0.1",
               "--batch-size", "4", "--passes", "2")
        assert epochs(*sgd, "--eval-every", "0.5") == [8, 16, 24, 32]
        assert epochs(*sgd, "--eval-every", "0.01") == list(range(1, 33))
        # SVRG evaluates exactly at every snapshot, so it reads no
        # eval_every: stored references at b=1, m=n, 2 passes an epoch
        stored = ("--optimizer", "svrg2", "--batch-size", "1",
                  "--passes", "12")
        assert epochs(*stored) == [0, 1, 2, 3, 4, 5, 6]
        capsys.readouterr()
        for opt in OPTIMIZERS[2:]:
            assert run_cli("train", "--dataset", synth(64, 3, 1),
                           "--optimizer", opt, "--batch-size", "1",
                           "--passes", "12", "--eval-every", "4") == 1, opt
            err = capsys.readouterr().err
            assert f"optimizer {opt} on objective erm does not read " \
                   "eval_every" in err, err
        # and so a tune config's eval_every reaches sgd cells only
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps({"eval_every": 0.5, "tune": {
            "passes": 1, "lambdas": [1e-3], "alphas": [0.1]}}))
        argv = ("tune", "--config", str(cfg), "--dataset", str(small_file),
                "--batch-size", "4")
        assert run_cli(*argv, "--optimizer", "sgd") == 0
        for opt in OPTIMIZERS[2:]:
            assert run_cli(*argv, "--optimizer", opt) == 1, opt
            assert "eval_every" in capsys.readouterr().err

    def test_svrg_plans_the_whole_epochs_a_budget_buys(self, tmp_path, synth):
        # n=3, b=1, m=5: an epoch costs 1 + 5/3 passes, so 8 passes buy
        # exactly 3 epochs, which a float quotient floors to 2.
        out = tmp_path / "trace.csv"
        for passes, epochs in (("8", 3), ("7.999999", 2), ("8.000001", 3)):
            assert run_cli("train", "--dataset", synth(3, 2, 1), "--optimizer",
                           "svrg1", "--batch-size", "1", "--m", "5",
                           "--passes", passes, "--out", str(out)) == 0
            assert schedule_echo(out)["epochs"] == epochs, passes
            # each epoch 3 + 5 component gradients, and a final pass
            assert read_trace(out)[-1].passes == (8 * epochs + 3) / 3

    def test_huge_budgets_count_without_running(self, synth):
        # A pass budget is the run's length, however large; it is counted
        # exactly here, and only an epoch's allocation is bounded.
        obj = ErmObjective(synthetic_dataset(64, 3, 1), LossKind("sigmoid"))
        data = synth(64, 3, 1)
        gd = RunConfig(dataset=data, optimizer="gd", passes=1e12)
        assert cli._run_length(gd, obj) == (None, 10 ** 12, None)
        sgd = RunConfig(dataset=data, optimizer="sgd", lr="constant:0.1",
                        batch_size=1, passes=1e300)
        assert cli._run_length(sgd, obj) == (None, int(1e300) * 64, None)
        # stored references at b=1 and the default m=n: 2 passes an epoch
        svrg = RunConfig(dataset=data, optimizer="svrg2", batch_size=1,
                         passes=1e300)
        schedule, epochs, stride = cli._run_length(svrg, obj)
        assert (schedule.m, schedule.m0) == (64, 64)
        assert type(epochs) is int and stride is None
        assert epochs == int(1e300) // 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, capsys, synth):
        rc = run_cli("train", "--dataset", synth(32, 3, 1), "--optimizer",
                     "sgd", "--loss", "squared", "--lambda", "0", "--lr",
                     "constant:1e6", "--passes", "50", "--batch-size", "1",
                     "--seed", "0")
        assert rc == 2

    def test_wall_clock_flag_breaks_reproducibility_only(self, tmp_path,
                                                         synth):
        out = tmp_path / "wall.csv"
        rc = run_cli("train", "--dataset", synth(32, 3, 1), "--optimizer",
                     "gd", "--passes", "2", "--lambda", "1e-3", "--out",
                     str(out), "--wall-clock")
        assert rc == 0
        walls = [r.wall_seconds for r in read_trace(out)]
        assert any(w > 0 for w in walls)


def test_bare_adagrad_takes_alpha_one_over_l(tmp_path, synth):
    obj = ErmObjective(synthetic_dataset(64, 3, 1), LossKind("sigmoid"),
                       lam=1e-3)
    bodies = []
    for lr in ("adagrad", f"adagrad:{1.0 / obj.smoothness!r}"):
        out = tmp_path / "trace.csv"
        assert run_cli("train", "--dataset", synth(64, 3, 1), "--lambda",
                       "1e-3", "--optimizer", "svrg2", "--batch-size", "1",
                       "--passes", "6", "--seed", "2", "--lr", lr,
                       "--out", str(out)) == 0
        bodies.append([line for line in out.read_text().splitlines()
                       if not line.startswith("#")])
    assert bodies[0] == bodies[1]


# A smoothness constant or a step derived from it (1/L, 1/(m0*L), AdaGrad's
# 1/L) that is not positive and finite: exit 1 naming the value and --lr,
# the setting to change.  The first dataset's row norms overflow to inf; the
# second's rows have norm 0.1, so under a hinge of width 1e308 L is about
# 1e-310 and 1/L overflows.
_OVERFLOW_ROWS = "+1 1:1e200 2:1\n-1 1:2 2:1e200\n+1 1:1\n-1 2:1\n"
_TINY_ROWS = "+1 1:0.1\n-1 2:0.1\n+1 2:0.1\n-1 1:0.1\n"
_TINY = ("--dataset", "{tiny}", "--loss", "hinge:1e308")
_BAD_DERIVED = {
    "svrg-tiny-smoothness": ((*_TINY, "--optimizer", "svrg2",
                              "--batch-size", "1"),
                             "inf", "1/(m0*L)"),
    "svrg-huge-lambda": (("--dataset", "{synth}", "--optimizer", "svrg2",
                          "--batch-size", "1", "--lambda", "1e308"),
                         "0.0", "1/(m0*L)"),
    "adagrad-tiny-smoothness": ((*_TINY, "--optimizer", "svrg2",
                                 "--batch-size", "1", "--lr", "adagrad"),
                                "inf", "1/L"),
    "gd-tiny-smoothness": ((*_TINY, "--optimizer", "gd"), "inf", "1/L"),
    "svrg-overflowing-rows": (("--dataset", "{overflow}", "--optimizer",
                               "svrg2", "--batch-size", "1"),
                              "inf", "smoothness constant"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(_BAD_DERIVED))
def test_derived_step_out_of_range_is_config_error(case, tmp_path, capsys,
                                                  synth):
    argv, value, what = _BAD_DERIVED[case]
    overflow, tiny = tmp_path / "overflow.libsvm", tmp_path / "tiny.libsvm"
    overflow.write_text(_OVERFLOW_ROWS)
    tiny.write_text(_TINY_ROWS)
    inputs = {"overflow": overflow, "tiny": tiny, "synth": synth(64, 3, 1)}
    assert main(["train", "--passes", "2",
                 *(a.format(**inputs) for a in argv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:"), err
    assert value in re.findall(r"[\w.+-]+", err), err
    assert what in err and err.rstrip().endswith("; set --lr"), err
    if "tiny" in case:
        assert "at smoothness 1e-310;" in err, err


def _multiclass_file(tmp_path) -> Path:
    path = tmp_path / "mc.libsvm"
    path.write_text("".join(f"{1 + i % 3} 1:{i}.5 2:-1.25\n"
                            for i in range(12)))
    return path


@pytest.mark.parametrize("optimizer,lr", [
    ("gd", "constant:0.01"), ("sgd", "constant:0.01"),
    ("svrg1", "constant:0.01"), ("svrg2", "constant:0.01"),
    ("svrg2", "poly:0.01,0.5"), ("svrg2", "adagrad:0.01")])
def test_network_with_an_lr_probes_no_smoothness(optimizer, lr, tmp_path,
                                                 monkeypatch):
    def no_probe(*args):
        raise AssertionError("smoothness_probe was called")

    monkeypatch.setattr(cli, "smoothness_probe", no_probe)
    batch = () if optimizer == "gd" else ("--batch-size", "2")
    assert main(["train", "--dataset", str(_multiclass_file(tmp_path)),
                 "--objective", "net", "--optimizer", optimizer, "--lr", lr,
                 "--passes", "11", *batch]) == 0


_BAD_M = {"superscript-2": "\u00b2", "arabic-indic-3": "\u0663",
          "arabic-indic-3n": "\u0663n", "superscript-in-n/b": "2\u00b2n/b",
          "n/": "n/", "/b": "/b", "empty": "", "blank": " ", "1e3": "1e3",
          "-2": "-2", "2n/c": "2n/c", "19-digits": "1" * 19,
          "5000-digit-n": "1" * 5000 + "n"}


@pytest.mark.parametrize("m", list(_BAD_M.values()), ids=list(_BAD_M))
def test_m_takes_ascii_digits_only(m, capsys, synth):
    for argv in (["train", "--dataset", synth(64, 3, 1), "--optimizer",
                  "svrg1", "--batch-size", "1", "--passes", "2"],
                 ["tune", "--dataset", str(bundled_dataset_path()),
                  "--optimizer", "svrg1", "--batch-size", "1"]):
        assert main(argv + ["--m", m]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "m" in err, err



# Runs that succeed, and a key each does not read with a value that is not
# its default: every (run, unread key) pair of the table of settings.
_BASE_RUNS = {
    "gd": ("--dataset", "{synth}", "--optimizer", "gd", "--passes", "2"),
    "gd-lr": ("--dataset", "{synth}", "--optimizer", "gd", "--passes", "2",
              "--lr", "constant:0.1"),
    "sgd": ("--dataset", "{synth}", "--optimizer", "sgd", "--passes", "1",
            "--lr", "constant:0.1", "--batch-size", "2"),
    "erm-svrg1": ("--dataset", "{synth}", "--optimizer", "svrg1",
                  "--passes", "2", "--batch-size", "2"),
    "net-svrg1": ("--dataset", "{mc}", "--objective", "net", "--optimizer",
                  "svrg1", "--passes", "11", "--batch-size", "2"),
}
_SVRG_LR = ("constant:0.1", "poly:0.3,0.5", "adagrad:0.1")
_BASE_RUNS.update({f"{opt}-{lr.split(':')[0]}": (
    "--dataset", "{synth}", "--optimizer", opt, "--passes", "2",
    "--batch-size", "2", "--lr", lr) for opt in OPTIMIZERS[2:]
    for lr in _SVRG_LR})
_UNREAD = [
    ("net-svrg1", "loss", ("--loss", "logistic")),
    ("erm-svrg1", "net", {"net": {"hidden": 8}}),
    ("gd", "batch_size", ("--batch-size", "4")),
    ("gd", "eval_every", ("--eval-every", "5")),
    ("erm-svrg1", "eval_every", ("--eval-every", "1")),
    ("gd", "m", ("--m", "2n")),
    ("gd", "m0", ("--m0", "2")),
    ("gd", "accounting", ("--accounting", "recompute")),
    ("sgd", "m", ("--m", "5")),
    ("sgd", "m0", ("--m0", "2")),
    ("sgd", "accounting", ("--accounting", "stored")),
]
# No run reads a smoothness setting or a label flip, so a config
# "smoothness" or "flip_fraction" is an unknown key
# (test_smoothness_is_no_setting checks the smoothness flag and the runs
# that took a step from it, test_labels_are_the_files the flip flag).
_UNREAD += [("net-svrg1", "flip_fraction", {"flip_fraction": 0.1})]
_UNREAD += [(run, "smoothness", {"smoothness": 5.0}) for run in (
    "gd-lr", "sgd", *(f"{opt}-{lr.split(':')[0]}" for opt in OPTIMIZERS[2:]
                      for lr in _SVRG_LR))]


@pytest.mark.parametrize("run,key,extra", _UNREAD,
                         ids=[f"{run}-{key}" for run, key, _ in _UNREAD])
def test_unread_setting_is_config_error(run, key, extra, tmp_path, capsys,
                                       synth):
    argv = ["train", *(a.format(mc=_multiclass_file(tmp_path),
                                synth=synth(16, 2, 1))
                       for a in _BASE_RUNS[run])]
    assert main(argv) == 0
    if isinstance(extra, dict):     # a key with no flag, set by the config
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(extra))
        extra = ("--config", str(config))
    capsys.readouterr()
    assert main(argv + list(extra)) == 1
    err = capsys.readouterr().err
    assert key in re.findall(r"\w+", err), err
    assert "Traceback" not in err


def test_smoothness_is_no_setting(small_file, tmp_path, capsys, synth):
    # --lr is the one step setting: a step from a known L is constant:1/L,
    # constant:1/(m0*L) or adagrad:1/L.  Checked on the runs whose step
    # comes from L, with train's flag and config key, and on tune's key.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"smoothness": 5.0}))
    for run in (("gd",), ("svrg2", "--batch-size", "2"),
                ("svrg1", "--batch-size", "2", "--lr", "adagrad")):
        argv = ["train", "--dataset", synth(16, 2, 1), "--passes", "2",
                "--optimizer", *run]
        assert main(argv) == 0, run
        for extra in (("--smoothness", "5"), ("--config", str(config))):
            capsys.readouterr()
            assert main(argv + list(extra)) == 1, (run, extra)
            assert "smoothness" in capsys.readouterr().err, (run, extra)
    grid = {"passes": 1, "lambdas": [1e-3], "alphas": [0.1], "betas": [0.0]}
    for optimizer in TUNE_OPTIMIZERS:
        config.write_text(json.dumps({"dataset": str(small_file),
                                      "optimizer": optimizer, "batch_size": 4,
                                      "smoothness": 5.0, "tune": grid}))
        capsys.readouterr()
        assert run_cli("tune", "--config", str(config)) == 1, optimizer
        assert "smoothness" in capsys.readouterr().err, optimizer


def test_labels_are_the_files(small_file, tmp_path, capsys, synth):
    # No setting changes the labels a file gives: label flips are the file
    # svrgkit flip writes, and a network's classes are the data's labels.
    config = tmp_path / "cfg.json"
    grid = {"passes": 1, "lambdas": [1e-3], "alphas": [0.1], "betas": [0.0]}
    train = ("train", "--dataset", synth(16, 2, 1), "--optimizer", "gd",
             "--passes", "2", "--config", str(config))
    tune = ("tune", "--dataset", str(small_file), "--optimizer", "sgd",
            "--batch-size", "4", "--config", str(config))
    for argv in (train, tune):
        config.write_text(json.dumps({"tune": grid} if argv is tune else {}))
        assert main(list(argv)) == 0, argv[0]
        capsys.readouterr()
        assert main([*argv, "--flip-fraction", "0.1"]) == 1, argv[0]
        err = capsys.readouterr().err
        assert "unrecognized arguments: --flip-fraction" in err, err
        config.write_text(json.dumps({"flip_fraction": 0.1, **(
            {"tune": grid} if argv is tune else {})}))
        assert main(list(argv)) == 1, argv[0]
        assert "unknown config keys: ['flip_fraction']" in (
            capsys.readouterr().err)
    net = ["train", "--dataset", str(_multiclass_file(tmp_path)),
           "--objective", "net", "--optimizer", "gd", "--passes", "1"]
    assert main(net) == 0
    config.write_text(json.dumps({"net": {"classes": 3}}))
    capsys.readouterr()
    assert main(net + ["--config", str(config)]) == 1
    assert "unknown net key 'classes'" in capsys.readouterr().err
    assert len(cli._RUN_KEYS) == 16 and cli._READS["erm"] == ("loss",)


def test_headers_echo_the_settings_each_run_reads(tmp_path, synth):
    # One run per optimizer and a network run; the keys of the "# config:"
    # and "# schedule:" lines, written out.
    erm = {"dataset", "lam", "loss", "objective", "optimizer", "passes",
           "seed"}
    svrg = {"batch_size", "d_sub", "dim", "epochs", "m", "m0", "n",
            "theory_ok"}
    net_config = tmp_path / "net.json"
    net_config.write_text(json.dumps({"net": {"hidden": 4}}))
    cases = [
        (("--optimizer", "gd"), erm, {"dim", "n", "step"}),
        (("--optimizer", "sgd", "--lr", "constant:0.1", "--batch-size", "2",
          "--eval-every", "3"),
         erm | {"batch_size", "eval_every", "lr"},
         {"batch_size", "dim", "iterations", "n"}),
        (("--optimizer", "svrg1", "--batch-size", "2"),
         erm | {"accounting", "batch_size"}, svrg | {"eta"}),
        (("--optimizer", "svrg2", "--batch-size", "2", "--lr",
          "poly:0.3,0.5", "--m0", "2"),
         erm | {"accounting", "batch_size", "lr", "m0"}, svrg),
        # a step from the smoothness: a bare adagrad's 1/L, the theory step
        (("--optimizer", "svrg2", "--batch-size", "2", "--lr", "adagrad"),
         erm | {"accounting", "batch_size", "lr"}, svrg),
        (("--optimizer", "svrg2", "--batch-size", "2"),
         erm | {"accounting", "batch_size"}, svrg | {"eta"}),
        (("--optimizer", "svrg1", "--batch-size", "2", "--m", "2n", "--lr",
          "constant:0.5"),
         erm | {"accounting", "batch_size", "lr", "m"}, svrg | {"eta"}),
    ]
    head = ("--dataset", synth(32, 2, 1), "--passes", "4")
    runs = [(head + args, config, schedule)
            for args, config, schedule in cases]
    runs.append((("--dataset", str(_multiclass_file(tmp_path)), "--objective",
                  "net", "--optimizer", "svrg2", "--batch-size", "2",
                  "--passes", "11", "--config", str(net_config)),
                 {"accounting", "batch_size", "dataset", "lam", "net",
                  "objective", "optimizer", "passes", "seed"},
                 svrg | {"eta"}))
    out = tmp_path / "trace.csv"
    for args, config, schedule in runs:
        assert main(["train", *args, "--out", str(out)]) == 0, args
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: "), args
        assert set(json.loads(lines[0][len("# config: "):])) == config, args
        assert set(schedule_echo(out)) == schedule, args


@settings(max_examples=60, deadline=None)
@given(optimizer=st.sampled_from(["gd", "sgd", "svrg1", "svrg2"]),
       n=st.integers(4, 24), b=st.integers(1, 6),
       budget=st.floats(1.0, 8.0),
       eval_every=st.one_of(st.none(), st.floats(0.1, 12.0)),
       accounting=st.sampled_from(["auto", "stored", "recompute"]),
       seed=st.integers(0, 3))
def test_pass_ledger(optimizer, n, b, budget, eval_every, accounting, seed,
                     synth):
    # Each setting where its optimizer reads it: gd reads no batch size,
    # only sgd reads eval_every, and only SVRG reads accounting.
    if optimizer == "gd":
        b = None
    else:
        b = min(b, n)
    if optimizer != "sgd":
        eval_every = None
    if optimizer in ("gd", "sgd"):
        accounting = "auto"
    cfg = RunConfig(dataset=synth(n, 3, seed), optimizer=optimizer,
                    batch_size=b, passes=budget, eval_every=eval_every,
                    accounting=accounting, lam=1e-3,
                    lr="constant:0.1" if optimizer == "sgd" else None,
                    seed=seed)
    rng = RandomSource(seed)
    result, meta = run_configured(build_objective(cfg), cfg, rng)
    passes = [r.passes for r in result.trace]
    assert result.grad_evals / n == passes[-1]
    assert all(p < q for p, q in zip(passes, passes[1:]))
    # Every exact evaluation (checkpoint, snapshot, final point) is a pass;
    # eval_every is in passes, rounded as the budget is to whole iterations,
    # and at least one.
    if optimizer == "gd":
        checkpoints = round(budget) + 1
        inner = 0
    elif optimizer == "sgd":
        iterations = meta["iterations"]
        stride = eval_every and max(1, round(eval_every * n / b))
        checkpoints = (iterations - 1) // stride + 1 if stride else 1
        inner = iterations * cfg.batch_size
    else:
        epochs, cost = meta["epochs"], 2 if accounting == "recompute" else 1
        checkpoints = epochs + 1
        inner = epochs * meta["m"] * cfg.batch_size * cost
    assert len(passes) == checkpoints
    assert result.grad_evals == checkpoints * n + inner


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 199), m=st.integers(1, 59), b=st.integers(1, 10),
       accounting=st.sampled_from(["stored", "recompute"]),
       multiple=st.integers(1, 11))
def test_a_budget_of_whole_epochs_plans_them_all(n, m, b, accounting,
                                                 multiple):
    # E epochs cost E*(n + k*m*b)/n passes, a float exactly when E is a
    # multiple of the odd part of the cost's reduced denominator.
    cost = Fraction(n + (2 if accounting == "recompute" else 1) * m * b, n)
    odd = cost.denominator
    while odd % 2 == 0:
        odd //= 2
    epochs = odd * multiple
    budget = float(epochs * cost)
    assert budget == epochs * cost
    obj = ErmObjective(synthetic_dataset(n, 2, 0), LossKind("sigmoid"))
    assert epochs_for_passes(obj, budget, m, b, accounting) == epochs
    # one float less buys one epoch less, and never none
    assert epochs_for_passes(obj, math.nextafter(budget, 0), m, b,
                             accounting) == max(1, epochs - 1)


@st.composite
def determinism_cases(draw):
    """A small sparse ERM, dense ERM or network instance (as a function that
    builds it afresh) and a random config that runs on it."""
    kind = draw(st.sampled_from(["sparse", "dense", "net"]))
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    optimizer = draw(st.sampled_from(OPTIMIZERS))
    # Each setting where the run reads it: loss for linear ERM, a batch
    # size for all but gd, eval_every for sgd, accounting for SVRG.
    reads = {}
    if kind != "net":
        reads["loss"] = draw(st.sampled_from(["sigmoid", "logistic",
                                              "hinge:0.1"]))
    if optimizer != "gd":
        reads["batch_size"] = draw(st.integers(1, n))
    if optimizer == "sgd":
        reads["eval_every"] = draw(st.one_of(st.none(), st.integers(1, 3)))
    if optimizer not in ("gd", "sgd"):
        reads["accounting"] = draw(st.sampled_from(
            ["auto", "recompute"] + (["stored"] if kind != "net" else [])))
    cfg = RunConfig(
        dataset="in-memory", objective="net" if kind == "net" else "erm",
        lam=draw(st.sampled_from([0.0, 1e-3])), optimizer=optimizer,
        passes=draw(st.floats(1.0, 4.0)),
        lr="constant:0.05" if optimizer == "sgd" else None,
        seed=draw(st.integers(0, 3)), **reads)
    feats = rng.normal(size=(n, d))
    feats[rng.random((n, d)) < 0.3] = 0.0
    feats[0, d - 1] = 1.0                   # the largest column is d - 1
    rows, cols = np.nonzero(feats)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    if kind == "sparse":
        labels = rng.choice([-1, 1], n)
        data = Dataset.from_csr(indptr, cols, feats[rows, cols], labels)
        return lambda: ErmObjective(data, cfg.loss_kind, lam=cfg.lam), cfg
    if kind == "dense":
        data = synthetic_dataset(n, d, draw(st.integers(0, 5)))
        return lambda: ErmObjective(data, cfg.loss_kind, lam=cfg.lam), cfg
    classes = draw(st.integers(2, 3))
    data = Dataset.from_csr(indptr, cols, feats[rows, cols],
                            rng.integers(1, classes + 1, n), binary=False)
    return lambda: TwoLayerNet(data, hidden_dim=3, class_count=classes,
                               lam=cfg.lam), cfg


@settings(max_examples=60, deadline=None)
@given(case=determinism_cases())
def test_same_data_config_and_seed_give_the_same_trace_bytes(case):
    make, cfg = case

    def trace_bytes():
        result, meta = run_configured(make(), cfg, RandomSource(cfg.seed))
        sink = io.StringIO()
        write_trace([replace(r, wall_seconds=0.0) for r in result.trace],
                    sink, [json.dumps(meta, sort_keys=True)])
        return sink.getvalue(), result.output.tobytes()

    try:
        first = trace_bytes()
    except DivergenceError as e:
        with pytest.raises(DivergenceError) as again:
            trace_bytes()
        assert str(again.value) == str(e)
        return
    assert trace_bytes() == first


def test_runtime_imports_no_scipy(small_file, tmp_path, synth):
    multiclass = _multiclass_file(tmp_path)
    tune = tmp_path / "tune.json"
    tune.write_text(json.dumps({"tune": {
        "passes": 1, "lambdas": [1e-3], "alphas": [0.1], "betas": [0.0]}}))
    out = tmp_path / "out.csv"
    runs = [
        ["train", "--dataset", str(small_file), "--optimizer", "svrg2",
         "--batch-size", "1", "--passes", "2"],
        ["train", "--dataset", synth(16, 3, 1), "--optimizer", "svrg1",
         "--batch-size", "2", "--passes", "2"],
        ["train", "--dataset", str(multiclass), "--objective", "net",
         "--optimizer", "svrg2", "--batch-size", "2", "--passes", "3"],
        ["tune", "--dataset", str(small_file), "--optimizer", "sgd",
         "--batch-size", "4", "--config", str(tune)],
    ]
    script = "\n".join([
        "import contextlib, io, json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import svrgkit.cli",
        f"for argv in {json.dumps(runs)}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        assert svrgkit.cli.main(argv + ['--out', {str(out)!r}]) == 0",
        "print(json.dumps([sorted(m for m in sys.modules",
        "                         if m.split('.')[0] == 'scipy'),",
        "                  'concurrent.futures.process' in sys.modules]))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    # no scipy module, and no process pool for a one-thread tune
    assert json.loads(done.stdout) == [[], False]


class TestTune:
    def make_config(self, small_file, tmp_path, optimizer="svrg1",
                    extra_tune=None):
        tune = {"passes": 6, "lambdas": [1e-4, 1e-2],
                "alphas": [0.05, 0.5]}
        tune.update(extra_tune or {})
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps({
            "dataset": str(small_file), "loss": "logistic",
            "optimizer": optimizer, "batch_size": 1, "seed": 4,
            "tune": tune}))
        return cfg

    def test_grid_runs_and_logs_cells(self, small_file, tmp_path, capsys):
        cfg = self.make_config(small_file, tmp_path)
        log = tmp_path / "cells.csv"
        rc = run_cli("tune", "--config", str(cfg), "--out", str(log))
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "best lambda=" in stdout
        rows = log.read_text().splitlines()
        assert rows[0].startswith("cell_id,lambda,alpha,beta")
        assert len(rows) == 1 + 4  # 2 lambdas x 2 alphas

    def test_winner_reproducible_from_log(self, small_file, tmp_path,
                                          capsys):
        cfg = self.make_config(small_file, tmp_path)
        log = tmp_path / "cells.csv"
        assert run_cli("tune", "--config", str(cfg), "--out", str(log)) == 0
        stdout = capsys.readouterr().out
        best_lam = float(stdout.split("best lambda=")[1].split()[0])
        best_alpha = float(stdout.split("alpha=")[1].split()[0])
        # replay the argmin over the logged cells
        cells = []
        for line in log.read_text().splitlines()[1:]:
            cid, lam, alpha, beta, fobj, fstat, div, acc = line.split(",")
            cells.append((float(lam), float(alpha), float(fobj),
                          int(div), acc))
        by_lambda = {}
        for lam, alpha, fobj, div, acc in cells:
            if div:
                continue
            cur = by_lambda.get(lam)
            if cur is None or fobj < cur[1]:
                by_lambda[lam] = (alpha, fobj)
        winners = [(lam, alpha, float(acc))
                   for lam, alpha, fobj, div, acc in cells
                   if not div and acc != "" and by_lambda[lam][0] == alpha]
        lam_star, alpha_star, _ = min(
            winners, key=lambda w: (-w[2], w[1], w[0]))
        assert lam_star == best_lam
        assert alpha_star == best_alpha

    def test_sgd_grid_includes_betas(self, small_file, tmp_path):
        cfg = self.make_config(small_file, tmp_path, optimizer="sgd",
                               extra_tune={"betas": [0.0, 0.5]})
        log = tmp_path / "cells.csv"
        assert run_cli("tune", "--config", str(cfg), "--out", str(log)) == 0
        rows = log.read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2  # lambdas x alphas x betas

    def test_default_sgd_grid_is_10_by_11(self, small_file, tmp_path):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({
            "dataset": str(small_file), "loss": "logistic",
            "optimizer": "sgd", "batch_size": 4, "seed": 4,
            "tune": {"passes": 1, "lambdas": [1e-3]}}))
        log = tmp_path / "cells.csv"
        assert run_cli("tune", "--config", str(cfg), "--out", str(log)) == 0
        assert len(log.read_text().splitlines()) == 1 + 10 * 11

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_diverged_exit_code(self, small_file, tmp_path):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({
            "dataset": str(small_file), "loss": "squared", "lambda": 0.0,
            "optimizer": "sgd", "batch_size": 1, "seed": 4,
            "tune": {"passes": 30, "lambdas": [0.0], "alphas": [1e7, 1e8],
                     "betas": [0.0]}}))
        assert run_cli("tune", "--config", str(cfg)) == 3

    def test_grids_that_cannot_run_are_config_errors(self, small_file,
                                                     tmp_path, capsys):
        cfg = tmp_path / "tune.json"
        grid = {"passes": 1, "lambdas": [1e-3], "alphas": [0.1],
                "betas": [0.0]}
        for top, tune, key in (({}, {"lambdas": []}, "tune.lambdas"),
                               ({}, {"alphas": []}, "tune.alphas"),
                               ({}, {"betas": []}, "tune.betas"),
                               ({"lr": "constant:0.1"}, {}, "lr")):
            cfg.write_text(json.dumps({"dataset": str(small_file),
                                       "optimizer": "sgd", "batch_size": 4,
                                       **top, "tune": {**grid, **tune}}))
            assert run_cli("tune", "--config", str(cfg)) == 1, (top, tune)
            assert key in capsys.readouterr().err, (top, tune)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_default_step_grid_needs_a_finite_smoothness(self, tmp_path,
                                                         capsys):
        # Without tune.alphas the grid centres on 1/L at the median lambda:
        # every lambda is checked before that objective is built, and L
        # must be positive and finite.  Ten label-only rows give L = 0.
        labels = tmp_path / "labels.libsvm"
        labels.write_text("+1\n-1\n" * 5)
        bundled = bundled_dataset_path()
        cfg = tmp_path / "tune.json"
        for data, lambdas, extra, words in (
                (bundled, [-1, -2, -3], (), ("tune.lambdas", "-1")),
                (bundled, [math.inf], (), ("tune.lambdas", "inf")),
                # the median of two 1e308 overflows to inf
                (bundled, [1e308, 1e308], (), ("tune.alphas", "inf")),
                (labels, [0], ("--batch-size", "2"), ("tune.alphas", "0.0"))):
            cfg.write_text(json.dumps({"tune": {"passes": 1,
                                                "lambdas": lambdas}}))
            assert run_cli("tune", "--config", str(cfg), "--dataset",
                           str(data), "--optimizer", "sgd", *extra) == 1, (
                               data, lambdas)
            err = capsys.readouterr().err
            assert err.startswith("config error:"), err
            assert all(w in re.findall(r"[\w.+-]+", err) for w in words), err

    def test_default_step_grid_needs_a_finite_one_over_l(self, tmp_path,
                                                         capsys):
        # Rows of norm 0.1 under a hinge of width 1e308 give L about 1e-310:
        # positive and finite, but the grid's centre 1/L overflows.  The
        # config error names L and the setting to change, with no warning.
        data = tmp_path / "tiny.libsvm"
        data.write_text("+1 1:0.1\n-1 1:0.1\n" * 5)
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps({"tune": {"lambdas": [0]}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("tune", "--config", str(cfg), "--dataset",
                           str(data), "--optimizer", "sgd", "--loss",
                           "hinge:1e308", "--batch-size", "2") == 1
        err = capsys.readouterr().err
        assert not caught and "RuntimeWarning" not in err, (caught, err)
        assert err.startswith("config error:"), err
        words = re.findall(r"[\w.+/-]+", err)
        assert {"1e-310", "1/L", "tune.alphas"} <= set(words), err

    @pytest.mark.parametrize("optimizer", ["svrg1", "svrg2"])
    def test_svrg_cells_step_with_their_grid_rate(self, optimizer, small_file,
                                                  tmp_path, monkeypatch):
        def no_smoothness(*args):
            raise AssertionError("a grid cell took a step from a smoothness")

        monkeypatch.setattr(cli, "_smoothness_rate", no_smoothness)
        cfg = self.make_config(small_file, tmp_path, optimizer=optimizer,
                               extra_tune={"lambdas": [1e-2]})
        log = tmp_path / "cells.csv"
        assert run_cli("tune", "--config", str(cfg), "--out", str(log)) == 0
        # cell 1 (alpha 0.5) replayed with ConstantRate(0.5) on the
        # training split, m = 2n
        train, _ = split(parse_libsvm(small_file), 0.8,
                         RandomSource(4).fork(0))
        obj = ErmObjective(train, LossKind("logistic"), lam=1e-2)
        sched = default_svrg_params(obj.n, m_override=2 * obj.n)
        runner = svrg_simple_run if optimizer == "svrg1" else svrg_full_run
        result = runner(obj, np.zeros(obj.dim), sched,
                        epochs_for_passes(obj, 6.0, sched.m, 1), 1,
                        RandomSource(4, (1, 1)), lr=ConstantRate(0.5))
        row = log.read_text().splitlines()[2].split(",")
        assert (row[2], float(row[4])) == ("0.5", result.final_value)

    def test_flip_fraction_reaches_training_cells(self, small_file, tmp_path):
        # tune reads the file svrgkit flip writes as any other
        flipped = tmp_path / "flipped.libsvm"
        assert run_cli("flip", str(small_file), "--fraction", "0.25",
                       "--seed", "7", "--out", str(flipped)) == 0
        final = {}
        for data in (small_file, flipped):
            cfg = self.make_config(data, tmp_path, optimizer="sgd",
                                   extra_tune={"lambdas": [1e-2],
                                               "alphas": [0.05],
                                               "betas": [0.0]})
            log = tmp_path / f"cells-{data.stem}.csv"
            assert run_cli("tune", "--config", str(cfg), "--out",
                           str(log)) == 0
            final[data] = float(log.read_text().splitlines()[1].split(",")[4])
        # the one cell replayed on the flipped training split
        full = flip_labels(parse_libsvm(small_file), 0.25, RandomSource(7))
        train, _ = split(full, 0.8, RandomSource(4).fork(0))
        obj = ErmObjective(train, LossKind("logistic"), lam=1e-2)
        result = sgd_run(obj, np.zeros(obj.dim), 6 * len(train), 1,
                         RandomSource(4, (1, 0)), ConstantRate(0.05))
        assert final[flipped] == result.final_value != final[small_file]

    def test_worker_pool_matches_sequential(self, small_file, tmp_path):
        cfg = self.make_config(small_file, tmp_path)
        log_a, log_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("tune", "--config", str(cfg), "--out", str(log_a)) == 0
        assert run_cli("tune", "--config", str(cfg), "--out", str(log_b),
                       "--threads", "2") == 0
        assert log_a.read_text() == log_b.read_text()

    def test_held_out_test_report(self, small_file, tmp_path, capsys):
        cfg = self.make_config(small_file, tmp_path,
                               extra_tune={"test_dataset": str(small_file)})
        assert run_cli("tune", "--config", str(cfg)) == 0
        stdout = capsys.readouterr().out
        acc = float(stdout.split("test_accuracy=")[1].split()[0])
        assert 0.0 <= acc <= 1.0

    def test_empty_held_out_file_exits_before_the_grid(
            self, small_file, tmp_path, capsys, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a grid cell ran")

        monkeypatch.setattr(cli, "_run_cell", no_cell)
        empty = tmp_path / "empty.libsvm"
        empty.write_text("# no rows\n\n")
        log = tmp_path / "cells.csv"
        for test in (str(empty), ""):
            cfg = self.make_config(small_file, tmp_path,
                                   extra_tune={"test_dataset": test})
            capsys.readouterr()
            assert run_cli("tune", "--config", str(cfg), "--out",
                           str(log)) == 1, test
            err = capsys.readouterr().err
            assert err.startswith("config error: tune.test_dataset"), err
            assert "Traceback" not in err and not log.exists(), test

    def test_test_dataset_read_with_the_training_dimension(self, tmp_path,
                                                           capsys):
        # training features {1, 5}, test features {1, 4}: the test file
        # alone has dimension 4, the weights have 5
        train, test = tmp_path / "train.libsvm", tmp_path / "test.libsvm"
        train.write_text("".join(f"{'+1' if i % 2 else '-1'} 1:{i % 3 + 1} "
                                 f"5:1\n" for i in range(20)))
        test.write_text("+1 1:1 4:2\n-1 1:2 4:1\n")
        cfg = tmp_path / "tune.json"
        cfg.write_text(json.dumps({
            "dataset": str(train), "optimizer": "sgd", "batch_size": 2,
            "tune": {"passes": 2, "lambdas": [1e-3], "alphas": [0.1],
                     "betas": [0.0], "test_dataset": str(test)}}))
        assert run_cli("tune", "--config", str(cfg)) == 0
        acc = float(capsys.readouterr().out.split("test_accuracy=")[1].split()[0])
        assert 0.0 <= acc <= 1.0
        test.write_text("+1 1:1 6:2\n")  # an index the weights do not have
        assert run_cli("tune", "--config", str(cfg)) == 1
        assert "test_dataset" in capsys.readouterr().err

    def test_held_out_labels_take_the_training_coding(self, tmp_path,
                                                      capsys):
        # The same rows labelled {1, 2}, 2 the positive class, and {-1, +1}
        # train the same cells; each one-class held-out file must score as
        # its {-1, +1} copy does, not be coded on its own labels.
        rng = np.random.default_rng(3)
        rows = [(c, rng.normal() + 2 * c - 3) for c in (1, 2) * 20]
        accuracy = {}
        for names in ({1: "1", 2: "2"}, {1: "-1", 2: "+1"}):
            def write(path, rows):
                path.write_text("".join(f"{names[c]} 1:{v!r} 2:1\n"
                                        for c, v in rows))
                return str(path)

            train = write(tmp_path / "train.libsvm", rows)
            for c in (1, 2):
                test = write(tmp_path / "test.libsvm",
                             [row for row in rows if row[0] == c])
                cfg = tmp_path / "tune.json"
                cfg.write_text(json.dumps({
                    "dataset": train, "optimizer": "sgd", "batch_size": 2,
                    "tune": {"passes": 2, "lambdas": [1e-3], "alphas": [0.1],
                             "betas": [0.0], "test_dataset": test}}))
                assert run_cli("tune", "--config", str(cfg)) == 0, (names, c)
                out = capsys.readouterr().out
                accuracy[names[1], c] = float(
                    out.split("test_accuracy=")[1].split()[0])
        for c in (1, 2):
            assert accuracy["1", c] == accuracy["-1", c] > 0.5, c
        # a held-out label the training file lacks names its line
        Path(test).write_text("+1 1:1 2:1\n0 1:1 2:1\n")
        assert run_cli("tune", "--config", str(cfg)) == 1
        assert "test_dataset: line 2: label 0.0" in capsys.readouterr().err

    def test_tie_break_prefers_small_step_then_small_lambda(self):
        def cell(cid, lam, alpha, obj):
            c = TuneCell(cid, lam, alpha, None)
            c.final_objective = obj
            return c

        cells = [cell(0, 1e-2, 0.1, 5.0), cell(1, 1e-2, 0.01, 5.0),
                 cell(2, 1e-4, 0.5, 7.0), cell(3, 1e-4, 0.5, 7.0)]
        winners = select_step_winners(cells)
        assert winners[1e-2].alpha == 0.01  # equal objectives: smaller step
        diverged = cell(4, 1e-3, 0.1, math.inf)
        diverged.diverged = True
        assert 1e-3 not in select_step_winners([diverged])


class TestVerify:
    def test_clean_gate_passes(self, capsys):
        assert run_cli("verify", "--seed", "0") == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_injected_fault_fails_smoothness(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = run_cli("verify", "--inject-fault", "sigmoid-scale",
                     "--out", str(out))
        assert rc == 4
        stdout = capsys.readouterr().out
        assert "FAIL component-smoothness" in stdout
        report = json.loads(out.read_text())
        assert report["failures"] == ["component-smoothness"]

    def test_report_carries_slacks(self):
        checks = run_verification(seed=0)
        assert all(c.detail for c in checks)
        names = {c.name for c in checks}
        assert {"estimator-unbiasedness", "variance-bound",
                "component-smoothness", "gradient-fd-erm"} <= names


# One malformed LibSVM line each: bad tokens, a repeated, decreasing or zero
# index, non-finite values, a bad label, indices beyond a C int, numbers
# that int() and float() read but are not ASCII digits ('_' separators,
# Arabic-Indic and fullwidth digits, an em space), and bytes that are not
# UTF-8 (written from their surrogate escapes), also in a comment.
_BAD_LINES = ["+1 1:2:3", "+1 :5", "+1 5:", "+1 a:1", "+1 3:1 3:2",
              "-1 4:1 2:1", "+1 0:1", "-1 1:nan", "+1 2:inf", "-1 1:1 3:-inf",
              "yes 1:1", "+1 99999999999999999999:1",
              "+1 9223372036854775807:1", "-1 -99999999999999999999:1",
              "+1 1_0:2_5", "1_0 1:1", "+1 \u0661:\uff12", "-1 1:1\u20032:1",
              "+1 1:\udcff", "+1 1:1 # caf\udce9"]


def _with_every_bad_line(test):
    """Each bad line at least once, after a comment of non-ASCII text."""
    for bad in _BAD_LINES:
        test = example(bad=bad, before=["# caf\u00e9 1_0"],
                       command="flip")(test)
    return test


@_with_every_bad_line
@settings(max_examples=60, deadline=None)
@given(bad=st.sampled_from(_BAD_LINES),
       before=st.lists(st.sampled_from([
           "+1 1:1 2:0.5", "-1 2:2", "", "# comment",
           "-1 1:1 # caf\u00e9 1_0"]), max_size=4),
       command=st.sampled_from(["flip", "train"]))
def test_malformed_line_exits_1_naming_the_line(bad, before, command):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "bad.libsvm", str(Path(tmp) / "out")
        src.write_bytes(("\n".join(before + [bad, "+1 1:1", "-1 2:1"]) + "\n")
                        .encode("utf-8", "surrogateescape"))
        argv = (["flip", str(src), "--fraction", "0.5", "--out", out]
                if command == "flip" else
                ["train", "--dataset", str(src), "--optimizer", "gd",
                 "--passes", "1", "--out", out])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)  # an escaping exception fails the test
    assert rc == 1
    assert f"line {len(before) + 1}:" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _numeric_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for every int or float flag of the subcommands
    that take numbers, read from the parser."""
    return [(command, action.option_strings[0])
            for command in ("train", "tune", "flip", "split", "synth")
            for action in _subcommands()[command]._actions
            if action.type in (int, float)]


# The removed numeric flags stay listed: no value of theirs may run.
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command,flag", _numeric_flags() + [
    ("train", flag) for flag in _REMOVED_TRAIN_FLAGS] + [
    ("tune", "--flip-fraction")])
def test_numeric_flag_rejects_bad_value(command, flag, value, small_file,
                                        tmp_path, capsys, synth):
    # Valid runs of each subcommand; the bad flag comes last, so it wins.
    tune_cfg = tmp_path / "tune.json"
    tune_cfg.write_text(json.dumps({"tune": {
        "passes": 1, "lambdas": [1e-3], "alphas": [0.1], "betas": [0.0]}}))
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "train": ["--dataset", synth(16, 2, 1), "--optimizer", "sgd", "--lr",
                  "constant:0.1", "--batch-size", "2", "--passes", "1", *out],
        "tune": ["--config", str(tune_cfg), "--dataset", str(small_file),
                 "--optimizer", "sgd", "--batch-size", "2", *out],
        "flip": [str(small_file), "--fraction", "0.5", *out],
        "split": [str(small_file), "--out-train", str(tmp_path / "a"),
                  "--out-validation", str(tmp_path / "b")],
        "synth": ["--n", "4", "--d", "2", *out],
    }[command]
    assert main([command, *argv, flag, value]) == 1
    assert "config error" in capsys.readouterr().err


def test_readme_flag_rows_match_the_parser():
    readme = (SRC.parent / "README.md").read_text()
    for command in ("train", "tune"):
        row = re.search(rf"^\| `{command}` \|(.*)\|$", readme, re.M).group(1)
        defined = [option for action in _subcommands()[command]._actions
                   for option in action.option_strings
                   if option not in ("-h", "--help")]
        assert sorted(re.findall(r"--[a-z][a-z0-9-]*", row)) == sorted(
            defined), command


def test_readme_optimizers_and_settings_match_the_code():
    readme = (SRC.parent / "README.md").read_text()
    names = re.search(r"^Optimizer names: (.*?)\.\s", readme,
                      re.M | re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", names)) == OPTIMIZERS
    # "Settings each run reads": one row per name of cli._READS, after the
    # row of cli._ALWAYS_READ; the config file spells lam as "lambda".
    table = readme.split("| run | reads |\n|---|---|\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines():
        run, reads = line.strip("|").split("|")
        keys = {"lam" if key == "lambda" else key
                for key in re.findall(r"`(\w+)`", reads)}
        for name in re.findall(r"`(\w+)`", run) or [run.strip()]:
            rows[name] = keys
    assert rows.pop("every run") == set(cli._ALWAYS_READ)
    assert rows == {name: set(keys) for name, keys in cli._READS.items()}


class TestDatasetCommands:
    def test_flip_exact_count_and_round_trip(self, tmp_path):
        src = tmp_path / "in.libsvm"
        src.write_text("".join(f"+1 1:{i + 1}\n" for i in range(8)))
        out = tmp_path / "flipped.libsvm"
        assert run_cli("flip", str(src), "--fraction", "0.25", "--seed",
                       "1", "--out", str(out)) == 0
        ds = parse_libsvm(out)
        assert (ds.labels == -1).sum() == 2
        rerun = tmp_path / "again.libsvm"
        assert run_cli("flip", str(src), "--fraction", "0.25", "--seed",
                       "1", "--out", str(rerun)) == 0
        assert out.read_text() == rerun.read_text()

    def test_split_sizes_and_round_trip(self, tmp_path):
        src = tmp_path / "in.libsvm"
        src.write_text("".join(f"+1 1:{i + 1}\n" for i in range(10)))
        t, v = tmp_path / "train.libsvm", tmp_path / "val.libsvm"
        assert run_cli("split", str(src), "--train-fraction", "0.8",
                       "--seed", "2", "--out-train", str(t),
                       "--out-validation", str(v)) == 0
        assert len(parse_libsvm(t)) == 8
        assert len(parse_libsvm(v)) == 2
        both = sorted(parse_libsvm(t).val.tolist()
                      + parse_libsvm(v).val.tolist())
        assert both == [float(i + 1) for i in range(10)]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "bad.libsvm"
        for text in ("1 a:b\n", "+1 1:nan\n"):
            src.write_text(text)
            assert run_cli("flip", str(src), "--fraction", "0.5",
                           "--out", str(tmp_path / "o.libsvm")) == 1
            assert "line 1" in capsys.readouterr().err

    def test_subcommands_reject_flags_they_do_not_read(self, tmp_path, synth):
        src = tmp_path / "in.libsvm"
        src.write_text("".join(f"+1 1:{i + 1}\n" for i in range(10)))
        out = str(tmp_path / "o")
        for argv in (("verify", "--config", "nonexistent.json",
                      "--threads", "3"),
                     ("split", str(src), "--out", out, "--threads", "5",
                      "--out-train", out, "--out-validation", out),
                     ("split", str(src), "--out", out, "--out-train", out,
                      "--out-validation", out),
                     ("train", "--dataset", synth(16, 2, 1), "--optimizer",
                      "gd", "--passes", "1", "--threads", "2"),
                     ("flip", str(src), "--fraction", "0.5", "--out", out,
                      "--config", "c.json"),
                     ("synth", "--n", "4", "--d", "2", "--out", out,
                      "--threads", "2")):
            assert run_cli(*argv) == 1, argv

    def test_synth_writes_parseable_file(self, tmp_path):
        out = tmp_path / "synth.libsvm"
        assert run_cli("synth", "--n", "12", "--d", "3", "--seed", "7",
                       "--out", str(out)) == 0
        ds = parse_libsvm(out)
        assert len(ds) == 12 and ds.dim == 3
        for n, d in (("0", "3"), ("12", "0")):
            assert run_cli("synth", "--n", n, "--d", d, "--out",
                           str(out)) == 1, (n, d)


@settings(max_examples=100, deadline=None)
@example(n=1, d=1, seed=0)
@example(n=64, d=8, seed=1000)
@given(n=st.integers(1, 64), d=st.integers(1, 8), seed=st.integers(0, 1000))
def test_synth_file_parses_back_to_the_synthetic_dataset(n, d, seed):
    # train reads a synthetic instance as the file synth writes: parsed
    # back, it is synthetic_dataset(n, d, seed) bit for bit
    want = synthetic_dataset(n, d, seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "synth.libsvm")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--n", str(n), "--d", str(d), "--seed",
                         str(seed), "--out", out]) == 0
        got = parse_libsvm(out)
    assert got.dim == want.dim
    for name in ("indptr", "col_idx", "val", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def test_synthetic_is_no_train_input(tmp_path, capsys, synth):
    # A synthetic instance reaches train only as the file synth writes:
    # a --synthetic flag or a "synthetic" config key is a config error
    # naming itself.
    argv = ["train", "--optimizer", "gd", "--passes", "1"]
    assert main(argv + ["--dataset", synth(16, 2, 1)]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"synthetic": {"n": 16, "d": 2, "seed": 1}}))
    for extra, name in ((["--synthetic", "16,2,1"], "--synthetic"),
                        (["--config", str(config)], "'synthetic'")):
        capsys.readouterr()
        assert main(argv + extra) == 1, extra
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err, err
