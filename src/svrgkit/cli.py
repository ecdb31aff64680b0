"""Benchmark harness CLI.

Subcommands:

  train    run one configured optimizer and write a trace CSV
  tune     hyperparameter search: seeded train/validation split, per-lambda
           step-size selection at a fixed pass budget, lambda selection by
           validation accuracy, optional held-out test report
  verify   run the numerical invariant gate (estimator unbiasedness,
           variance bounds, smoothness, weight normalization, gradient
           finite-difference checks)
  flip     negate a random fraction of a LibSVM file's labels
  split    partition a LibSVM file into train/validation files
  synth    write a synthetic instance as a LibSVM file

train and tune declare their shared run flags once, read their data
through one loader (``_load_dataset``) and size every run in one call
(``_run_length``); a tune cell is the train run of its config.

Exit codes: 0 ok, 1 config error, 2 divergence, 3 every grid cell diverged,
4 verification failure.

Config files are JSON; every flag overrides its config key.  The settings
the run reads are echoed into the trace file as '#' comments, and any other
setting off its default is a config error.  Trace files are
byte-reproducible for a fixed config and seed; measured wall times go to
stdout and enter the CSV only with --wall-clock.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
import typing
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import RandomSource
from .dataio import (Dataset, LibsvmFormatError, flip_labels, parse_libsvm,
                     split, write_libsvm, write_trace)
from .losses import LossKind
from .objectives import (ErmObjective, TwoLayerNet, smoothness_probe,
                         synthetic_dataset)
# perfbench wraps the runners by their names in this module: renaming them,
# or a run that bypasses them, fails every benchmark operation.
from .optim import (AdaGradRate, ConstantRate, DivergenceError,
                    PolynomialRate, RunResult, SvrgSchedule,
                    default_svrg_params,
                    epochs_for_passes, gd_run, parse_rate, sgd_run,
                    svrg_full_run, svrg_simple_run, theory_step)
from .verify import run_verification

OPTIMIZERS = ("gd", "sgd", "svrg1", "svrg2")
TUNE_OPTIMIZERS = ("sgd", "svrg1", "svrg2")
# Arrays sized by the input, 8 bytes an entry, stay within 1 GiB: an SVRG
# epoch's m*b component indices, drawn at once, with the 3*m0 entries its
# stop-draw weights take to build, a synthetic instance's n*d features
# (with as many column indices), and a network's dense n*d features and
# its parameter vector.
_MAX_ENTRIES = 2 ** 27


class ConfigError(ValueError):
    """Bad configuration; maps to exit code 1."""


class AllDivergedError(RuntimeError):
    """Every cell of a tuning grid diverged; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _check_type(key: str, value, kinds: tuple) -> None:
    """Config values keep their JSON types: an int is no bool and no float,
    and a float may be written as an int."""
    if isinstance(value, bool):
        ok = bool in kinds
    else:
        ok = isinstance(value, kinds) or (float in kinds
                                          and isinstance(value, int))
    if not ok:
        names = " or ".join(k.__name__ for k in kinds if k is not type(None))
        raise ConfigError(f"{key} must be {names}, got {value!r}")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One training run, resolved from config file + flags."""

    dataset: str | None = None
    synthetic: dict | None = None
    objective: str = "erm"
    loss: str = "sigmoid"
    lam: float = 0.0
    flip_fraction: float = 0.0
    optimizer: str = "svrg1"
    batch_size: int | None = None
    passes: float | None = None
    m: str | int | None = None
    m0: int | None = None
    lr: str | None = None
    seed: int = 0
    accounting: str = "auto"
    eval_every: float | None = None
    net: dict = field(default_factory=dict)
    out: str | None = None
    wall_clock: bool = False
    # Parsed from ``loss`` and ``lr``; the strings stay the config.
    loss_kind: LossKind = field(init=False, repr=False)
    rate: ConstantRate | PolynomialRate | AdaGradRate | None = field(
        init=False, repr=False)

    def __post_init__(self):
        for key in _RUN_KEYS:
            _check_type("lambda" if key == "lam" else key, getattr(self, key),
                        _RUN_TYPES[key])
        if (self.dataset is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset / synthetic is required")
        try:
            self.loss_kind = LossKind.parse(self.loss)
        except ValueError as e:
            raise ConfigError(f"bad loss {self.loss!r}: {e}") from None
        try:
            self.rate = parse_rate(self.lr) if self.lr is not None else None
        except ValueError as e:
            raise ConfigError(f"bad lr {self.lr!r}: {e}") from None
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.optimizer == "gd" and not isinstance(
                self.rate, (ConstantRate, type(None))):
            raise ConfigError(f"gd takes a constant step; lr must be "
                              f"constant:ETA, got {self.lr!r}")
        if self.objective not in ("erm", "net"):
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.accounting not in ("auto", "stored", "recompute"):
            raise ConfigError(f"unknown accounting mode {self.accounting!r}")
        if self.flip_fraction and not 0 <= self.flip_fraction <= 1:
            raise ConfigError("flip_fraction must be in [0,1]")
        spec = self.synthetic
        if spec is not None:
            if set(spec) != {"n", "d", "seed"}:
                raise ConfigError(f"synthetic needs n, d and seed, got {spec!r}")
            for key, low in (("n", 1), ("d", 1), ("seed", 0)):
                _check_type(f"synthetic.{key}", spec[key], (int,))
                if spec[key] < low:
                    raise ConfigError(f"synthetic.{key} must be >= {low}, "
                                      f"got {spec[key]}")
            _check_synthetic_size(spec["n"], spec["d"])
        if self.synthetic is not None and self.objective != "erm":
            raise ConfigError("synthetic inputs are linear ERM instances; "
                              "objective 'net' needs a dataset")
        if self.synthetic is not None and self.flip_fraction:
            raise ConfigError("flip_fraction applies to dataset inputs only")
        if self.objective == "net" and self.accounting == "stored":
            raise ConfigError("networks recompute reference gradients; "
                              "accounting 'stored' is for linear ERM")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be non-negative and finite, "
                              f"got {self.lam}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key, value in self.net.items():
            if key not in ("hidden", "classes"):
                raise ConfigError(f"unknown net key {key!r}")
            _check_type(f"net.{key}", value, (int,))
            if value < 1:
                raise ConfigError(f"net.{key} must be positive, got {value}")
        for key in ("m0", "passes", "batch_size", "eval_every"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, "
                                  f"got {value}")
        # Every setting off its default is one the run reads, so the
        # header echoes it.  A field's default is its class attribute,
        # or {} for net's factory.
        echoed = self.effective()
        for key in _RUN_KEYS:
            if key not in echoed and key not in ("out", "wall_clock") and (
                    getattr(self, key) != getattr(RunConfig, key, {})):
                raise ConfigError(f"optimizer {self.optimizer} on objective "
                                  f"{self.objective} does not read {key}")
        if self.batch_size is None and "batch_size" in _READS[self.optimizer]:
            self.batch_size = 100

    def steps_from_smoothness(self) -> bool:
        """Whether a step comes from the objective's smoothness L: gd's 1/L
        or SVRG's 1/(m0*L) without an lr, or a bare adagrad's alpha 1/L."""
        return self.optimizer != "sgd" and self.rate in (None, AdaGradRate())

    def effective(self) -> dict:
        """Run semantics for the trace header: the set values of the
        settings the run reads (:data:`_READS`), and no other."""
        return {key: getattr(self, key) for key in
                _ALWAYS_READ + _READS[self.objective] + _READS[self.optimizer]
                if getattr(self, key) not in (None, {})}


# RunConfig's settable fields, which are also the flag destinations; the
# config file spells ``lam`` as "lambda", sets no wall_clock and adds the
# "tune" section.
_RUN_KEYS = tuple(f.name for f in fields(RunConfig) if f.init)
# Each settable field's JSON types, read off its annotation.
_RUN_TYPES = {key: typing.get_args(hint) or (hint,)
              for key, hint in typing.get_type_hints(RunConfig).items()
              if key in _RUN_KEYS}
_CONFIG_KEYS = {"lambda" if key == "lam" else key
                for key in _RUN_KEYS if key != "wall_clock"} | {"tune"}
# The settings each run reads: these, and its objective's and its
# optimizer's rows below.  svrg1 and svrg2 (OPTIMIZERS[2:]) read sgd's batch
# size and lr, and their schedule's settings; every snapshot is an exact
# evaluation, so only sgd reads eval_every.  The rows depend on the
# objective and the optimizer alone: a step that comes from the smoothness
# takes it from the objective (RunConfig.steps_from_smoothness).
_ALWAYS_READ = ("optimizer", "passes", "seed", "objective", "lam", "dataset",
                "synthetic")
_READS = {"erm": ("loss", "flip_fraction"), "net": ("net",),
          "gd": ("lr",), "sgd": ("batch_size", "lr", "eval_every")}
_READS.update(dict.fromkeys(OPTIMIZERS[2:], (
    "batch_size", "lr", "m", "m0", "accounting")))


def load_config(args) -> tuple[RunConfig, dict]:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        _check_type("config", raw, (dict,))
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "lambda" in raw:
        raw["lam"] = raw.pop("lambda")
    tune = raw.pop("tune", {})
    for key in _RUN_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if getattr(args, "synthetic", None) is not None:
        try:
            n, d, seed = (int(v) for v in args.synthetic.split(","))
        except ValueError:
            raise ConfigError(f"--synthetic takes N,D,SEED, got "
                              f"{args.synthetic!r}") from None
        raw["synthetic"] = {"n": n, "d": d, "seed": seed}
        raw.pop("dataset", None)
    try:
        cfg = RunConfig(**raw)
    except TypeError as e:
        raise ConfigError(str(e))
    return cfg, tune


def _check_synthetic_size(n: int, d: int) -> None:
    if n * d > _MAX_ENTRIES:
        raise ConfigError(f"a synthetic instance of n={n} by d={d} holds "
                          f"over {_MAX_ENTRIES} feature entries")


def _parse_m(expr, n: int, b: int) -> int:
    """m is a positive int or an expression 'n', '2n', '5n/b', ...: ASCII
    [0-9]+, [0-9]*n or [0-9]*n/b.  A coefficient of over 18 digits is a
    config error here, as any m over _MAX_ENTRIES is later."""
    match = re.fullmatch(r"([0-9]*)(n(/b)?)?", str(expr).strip())
    if not match or not any(match.groups()):
        raise ConfigError(f"cannot parse m expression {expr!r}")
    if len(match.group(1)) > 18:
        raise ConfigError(f"m {expr!r} is over {_MAX_ENTRIES} steps")
    coef = int(match.group(1) or 1)
    if coef < 1:
        raise ConfigError(f"m must be positive, got {expr!r}")
    if not match.group(2):
        return coef
    return max(1, round(coef * n / (b if match.group(3) else 1)))


def _load_dataset(cfg: RunConfig, rng: RandomSource) -> Dataset:
    """cfg's data, for train and tune alike: the synthetic instance, or the
    parsed file (binary for ERM) with its labels flipped by ``rng``'s fork
    7 when flip_fraction is set."""
    if cfg.synthetic is not None:
        return synthetic_dataset(**cfg.synthetic)
    ds = parse_libsvm(cfg.dataset, binary=(cfg.objective == "erm"))
    if len(ds) == 0:
        raise ConfigError(f"dataset {cfg.dataset} has no examples")
    if cfg.flip_fraction:
        ds = flip_labels(ds, cfg.flip_fraction, rng.fork(7))
    return ds


def build_objective(cfg: RunConfig, rng: RandomSource):
    ds = _load_dataset(cfg, rng)
    if cfg.objective == "erm":
        return ErmObjective(ds, cfg.loss_kind, lam=cfg.lam)
    classes = cfg.net.get("classes", ds.class_count())
    if classes < ds.class_count():
        raise ConfigError(f"net.classes is {classes} but the dataset has "
                          f"labels up to {ds.class_count()}")
    hidden, n, d = cfg.net.get("hidden", 64), len(ds), ds.dim
    params = hidden * (d + 1) + classes * (hidden + 1)
    if max(n * d, params) > _MAX_ENTRIES:
        raise ConfigError(f"a network over n={n} rows of d={d} features "
                          f"with {hidden} hidden units and {classes} classes "
                          f"holds over {_MAX_ENTRIES} features or parameters")
    return TwoLayerNet(ds, hidden_dim=hidden, class_count=classes, lam=cfg.lam)


def _smoothness_rate(cfg: RunConfig, obj, rng: RandomSource, schedule):
    """cfg's rate with the step that comes from the objective's smoothness
    L: a bare adagrad's alpha 1/L, else SVRG's :func:`theory_step`
    1/(m0*L) or gd's 1/L, a config error unless L and the step are positive
    and finite.  The one place a run computes L: ERM's closed form, or for
    a network twice :func:`smoothness_probe` at scale 0.1 over 200 pairs,
    whose 400 component gradients no ledger charges.  A step from a known
    L is an --lr: constant:1/L, constant:1/(m0*L) or adagrad:1/L."""
    L = (2.0 * smoothness_probe(obj, 200, rng.fork(13), 0.1)
         if isinstance(obj, TwoLayerNet) else obj.smoothness)
    if not 0 < L < math.inf:
        raise ConfigError(f"the data give a smoothness constant of {L}, "
                          "not a positive finite one; set --lr")
    theory = schedule is not None and cfg.rate is None
    step = theory_step(schedule, L) if theory else 1.0 / L
    if not 0 < step < math.inf:
        raise ConfigError(f"the step {'1/(m0*L)' if theory else '1/L'} is "
                          f"{step} at smoothness {L}; set --lr")
    return ConstantRate(step) if cfg.rate is None else replace(cfg.rate,
                                                               alpha=step)


def _run_length(cfg: RunConfig, obj,
                ) -> tuple[SvrgSchedule | None, int, int | None]:
    """The one place a run is sized on obj: SVRG's schedule (None for gd
    and sgd), cfg's pass budget as a count of gd steps, sgd iterations, or
    SVRG epochs of m steps (:func:`epochs_for_passes`), and sgd's
    eval_every, also in passes, as a checkpoint stride of at least one
    iteration (None for other runs, which read no eval_every).  Every run
    adds a final exact evaluation on top."""
    n, b = obj.n, cfg.batch_size
    if b is not None and b > n:
        raise ConfigError(f"batch_size {b} exceeds n={n}")
    schedule = None
    if "m" in _READS[cfg.optimizer]:
        default_m = "5n/b" if cfg.objective == "net" else "n"
        m = _parse_m(cfg.m if cfg.m is not None else default_m, n, b)
        # m rounds up to a multiple of m0, and the default m0 is at most m
        steps = max(m, cfg.m0 or 1)
        if steps * b + 3 * (cfg.m0 or m) > _MAX_ENTRIES:
            raise ConfigError(f"an epoch of m={steps} steps at batch size "
                              f"b={b} and m0={cfg.m0 or 'at most m'} holds "
                              f"over {_MAX_ENTRIES} entries: m*b indices and "
                              "3*m0 stop-draw weights")
        schedule = default_svrg_params(n, m_override=m, m0_override=cfg.m0)
    if cfg.passes is None:
        raise ConfigError(f"{cfg.optimizer} needs a pass budget (passes)")

    def count(key: str) -> int:
        passes = getattr(cfg, key)
        if cfg.optimizer == "gd":
            return round(passes)
        if schedule is not None:
            return epochs_for_passes(obj, passes, schedule.m, b,
                                     cfg.accounting)
        iterations = passes * n / b
        if iterations == math.inf:
            raise ConfigError(f"{key}={passes} is more sgd iterations than "
                              "a float holds")
        return round(iterations)

    length = count("passes")
    if length < 1:
        raise ConfigError(f"passes={cfg.passes} buys no {cfg.optimizer} step")
    stride = max(1, count("eval_every")) if cfg.eval_every else None
    return schedule, length, stride


def run_configured(obj, cfg: RunConfig, rng: RandomSource,
                   ) -> tuple[RunResult, dict]:
    """Run cfg's optimizer on obj for its pass budget; returns the result
    and the schedule/metadata echo.

    Linear ERM starts at the origin, a network at a random point drawn from
    ``rng``'s fork 17, which no other draw uses."""
    schedule, length, stride = _run_length(cfg, obj)
    b = cfg.batch_size
    meta: dict = {"n": obj.n, "dim": obj.dim}
    x0 = (obj.initial_point(rng.fork(17)) if isinstance(obj, TwoLayerNet)
          else np.zeros(obj.dim))
    lr = (_smoothness_rate(cfg, obj, rng, schedule)
          if cfg.steps_from_smoothness() else cfg.rate)

    if cfg.optimizer == "gd":
        meta["step"] = lr.eta
        result = gd_run(obj, x0, length, step=lr.eta)
    elif cfg.optimizer == "sgd":
        if lr is None:
            raise ConfigError("sgd needs an lr spec")
        if isinstance(lr, AdaGradRate) and lr.alpha is None:
            raise ConfigError("sgd reads no smoothness, so an adagrad step "
                              "needs its alpha: lr adagrad:ALPHA[,DELTA]")
        result = sgd_run(obj, x0, length, b, rng, lr, eval_every=stride)
        meta.update(batch_size=b, iterations=length)
    else:
        meta.update(batch_size=b, m=schedule.m, m0=schedule.m0,
                    d_sub=schedule.d_sub, theory_ok=schedule.theory_ok,
                    epochs=length)
        if isinstance(lr, ConstantRate):    # the step in effect
            meta["eta"] = lr.eta
        runner = svrg_simple_run if cfg.optimizer == "svrg1" else svrg_full_run
        result = runner(obj, x0, schedule, length, b, rng, lr=lr,
                        accounting=cfg.accounting)
    return result, meta


def cmd_train(args) -> int:
    cfg, _ = load_config(args)
    t0 = time.perf_counter()
    rng = RandomSource(cfg.seed)
    result, meta = run_configured(build_objective(cfg, rng), cfg, rng)
    wall = time.perf_counter() - t0
    if cfg.out:
        records = result.trace
        if not cfg.wall_clock:
            records = [type(r)(r.passes, r.objective, r.grad_norm_sq, 0.0,
                               r.epoch) for r in records]
        comments = ["config: " + json.dumps(cfg.effective(), sort_keys=True),
                    "schedule: " + json.dumps(meta, sort_keys=True)]
        write_trace(records, cfg.out, header_comments=comments)
    print(f"optimizer={cfg.optimizer} seed={cfg.seed}")
    print(f"final_objective={result.final_value!r}")
    print(f"final_grad_norm_sq={result.final_grad_norm_sq!r}")
    print(f"passes={result.passes!r} grad_evals={result.grad_evals}")
    print(f"wall_seconds={wall:.3f}")
    return 0


# ---------------------------------------------------------------------------
# tuning (steps I-IV)
# ---------------------------------------------------------------------------


@dataclass
class TuneCell:
    cell_id: int
    lam: float
    alpha: float
    beta: float | None
    final_objective: float = math.inf
    final_stationarity: float = math.inf
    diverged: bool = False
    val_accuracy: float | None = None


def _run_cell(data: Dataset, cell_id: int, cfg: RunConfig,
              ) -> RunResult | None:
    """One grid cell on the training data; None when it diverged."""
    obj = ErmObjective(data, cfg.loss_kind, lam=cfg.lam)
    try:
        return run_configured(obj, cfg, RandomSource(cfg.seed, (1, cell_id)))[0]
    except DivergenceError:
        return None


def select_step_winners(cells: list[TuneCell]) -> dict[float, "TuneCell"]:
    """Per-lambda winner: lowest training objective among non-diverged
    cells; ties break toward the smaller step size, then the smaller beta
    (cells are scanned in ascending (lambda, alpha, beta) order with a
    strict comparison, so the first of a tie wins)."""
    winners: dict[float, TuneCell] = {}
    order = sorted(cells, key=lambda c: (c.lam, c.alpha,
                                         -1.0 if c.beta is None else c.beta))
    for cell in order:
        if cell.diverged:
            continue
        cur = winners.get(cell.lam)
        if cur is None or cell.final_objective < cur.final_objective:
            winners[cell.lam] = cell
    return winners


def default_alpha_grid(L: float) -> list[float]:
    """Ten step sizes log-spaced over four decades centred on 1/L."""
    center = math.log10(1.0 / L)
    return list(np.logspace(center - 2.0, center + 2.0, 10))


# The "tune" section's keys and their JSON types; list entries are numbers.
_TUNE_TYPES = {"passes": (float,), "lambdas": (list,), "alphas": (list,),
               "betas": (list,), "train_fraction": (float,),
               "test_dataset": (str,)}


def cmd_tune(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    cfg, tune = load_config(args)
    _check_type("tune", tune, (dict,))
    for key, value in tune.items():
        if key not in _TUNE_TYPES:
            raise ConfigError(f"unknown tune key {key!r}")
        _check_type(f"tune.{key}", value, _TUNE_TYPES[key])
        if isinstance(value, list):
            if not value:
                raise ConfigError(f"tune.{key} is an empty grid")
            for entry in value:
                _check_type(f"tune.{key} entry", entry, (float,))
                if key == "lambdas" and not 0 <= entry < math.inf:
                    raise ConfigError(f"tune.lambdas entries must be "
                                      f"non-negative and finite, got {entry}")
    if cfg.synthetic is not None or cfg.objective != "erm":
        raise ConfigError("tune drives LibSVM-backed linear ERM runs")
    if cfg.optimizer not in TUNE_OPTIMIZERS:
        raise ConfigError(f"tune runs {', '.join(TUNE_OPTIMIZERS)}, "
                          f"not {cfg.optimizer!r}")
    for key, owner in (("passes", "tune.passes"), ("lr", "the grid")):
        if getattr(cfg, key) is not None:
            raise ConfigError(f"tune takes each cell's {key} from {owner}; "
                              f"remove the top-level {key!r}")
    rng = RandomSource(cfg.seed)
    # Flips hit the full training pool before the split.
    full = _load_dataset(cfg, rng)
    train, validation = _split(full, tune.get("train_fraction", 0.8),
                               rng.fork(0))
    test_ds = None
    if tune.get("test_dataset"):
        # Scored with weights over the training features, so no larger
        # index, and with the training file's label codes.
        try:
            test_ds = parse_libsvm(tune["test_dataset"], dim=train.dim,
                                   coding=full.coding)
        except ValueError as e:
            raise ConfigError(f"test_dataset: {e}") from None
    passes = tune.get("passes", 50.0)
    b = min(cfg.batch_size, len(train))

    loss = cfg.loss_kind
    # Ten regularization weights log-spaced from 1e-6 to 1e-1 by default.
    lambdas = tune.get("lambdas", list(np.logspace(-6.0, -1.0, 10)))
    alphas = tune.get("alphas")
    if alphas is None:
        L = ErmObjective(train, loss, lam=float(np.median(lambdas))).smoothness
        if not 0 < L < math.inf:
            raise ConfigError(f"the data give a smoothness constant of {L} at "
                              "the median lambda, not a positive finite one; "
                              "set tune.alphas")
        alphas = default_alpha_grid(L)
    betas = tune.get("betas", [round(0.1 * i, 1) for i in range(11)]
                     if cfg.optimizer == "sgd" else [None])
    # SVRG cells resolve m on the training split (run_configured)
    m = ((cfg.m if cfg.m is not None else "2n")
         if "m" in _READS[cfg.optimizer] else None)

    cells: list[TuneCell] = []
    cfgs: list[RunConfig] = []
    for lam in sorted(float(l) for l in lambdas):
        for alpha in sorted(float(a) for a in alphas):
            for beta in betas:
                lr = (f"constant:{alpha!r}" if beta is None or beta == 0.0
                      else f"poly:{alpha!r},{beta!r}")
                cells.append(TuneCell(len(cells), lam, alpha, beta))
                cfgs.append(replace(cfg, lam=lam, lr=lr, batch_size=b,
                                    passes=passes, m=m))

    with ExitStack() as stack:
        run_map = map
        if args.threads > 1:
            # imported here: the process pool machinery would add 28
            # modules to every other command's start-up
            from concurrent.futures import ProcessPoolExecutor
            run_map = stack.enter_context(
                ProcessPoolExecutor(max_workers=args.threads)).map
        results = list(run_map(partial(_run_cell, train), range(len(cfgs)),
                               cfgs))
    for cell, result in zip(cells, results):
        cell.diverged = result is None
        if result is not None:
            cell.final_objective = result.final_value
            cell.final_stationarity = result.final_grad_norm_sq
    if all(c.diverged for c in cells):
        raise AllDivergedError("every tuning cell diverged")

    winners = select_step_winners(cells)
    for lam in sorted(winners):
        cell = winners[lam]
        val_obj = ErmObjective(validation, loss, lam=lam)
        cell.val_accuracy = val_obj.accuracy(results[cell.cell_id].output)
    # accuracy decides lambda; ties break to the smaller step, then lambda
    chosen = min(winners.values(),
                 key=lambda c: (-c.val_accuracy, c.alpha, c.lam))

    # Step IV: held-out test report if a test file is configured.
    test_accuracy = None
    if test_ds is not None:
        test_obj = ErmObjective(test_ds, loss, lam=chosen.lam)
        test_accuracy = test_obj.accuracy(results[chosen.cell_id].output)

    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write("cell_id,lambda,alpha,beta,final_objective,"
                     "final_stationarity,diverged,val_accuracy\n")
            for c in cells:
                beta = "" if c.beta is None else repr(float(c.beta))
                acc = "" if c.val_accuracy is None else repr(c.val_accuracy)
                fh.write(f"{c.cell_id},{c.lam!r},{c.alpha!r},{beta},"
                         f"{c.final_objective!r},{c.final_stationarity!r},"
                         f"{int(c.diverged)},{acc}\n")
    print(f"cells={len(cells)} diverged={sum(c.diverged for c in cells)}")
    print(f"best lambda={chosen.lam!r} alpha={chosen.alpha!r} "
          f"beta={chosen.beta!r}")
    print(f"best final_objective={chosen.final_objective!r}")
    print(f"best val_accuracy={chosen.val_accuracy!r}")
    if test_accuracy is not None:
        print(f"test_accuracy={test_accuracy!r}")
    return 0


def _split(ds: Dataset, train_fraction: float, rng: RandomSource,
           ) -> tuple[Dataset, Dataset]:
    """dataio.split with its input checks reported as config errors."""
    try:
        return split(ds, train_fraction, rng)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def cmd_verify(args) -> int:
    checks = run_verification(seed=args.seed or 0, fault=args.inject_fault)
    failures = [c for c in checks if not c.passed]
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    summary = {"checks": len(checks), "failures": [c.name for c in failures],
               "details": {c.name: c.detail for c in checks}}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"checks": len(checks),
                      "failures": [c.name for c in failures]}))
    if failures:
        return 4
    return 0


# ---------------------------------------------------------------------------
# dataset utilities
# ---------------------------------------------------------------------------


def cmd_flip(args) -> int:
    if not args.out:
        raise ConfigError("flip needs --out")
    if not 0 <= args.fraction <= 1:
        raise ConfigError(f"--fraction must be in [0, 1], got {args.fraction}")
    ds = parse_libsvm(args.dataset)
    out = flip_labels(ds, args.fraction, RandomSource(args.seed or 0))
    write_libsvm(out, args.out)
    print(f"wrote {args.out} ({len(out)} examples)")
    return 0


def cmd_split(args) -> int:
    ds = parse_libsvm(args.dataset)
    train, val = _split(ds, args.train_fraction, RandomSource(args.seed or 0))
    write_libsvm(train, args.out_train)
    write_libsvm(val, args.out_validation)
    print(f"wrote {args.out_train} ({len(train)}) and "
          f"{args.out_validation} ({len(val)})")
    return 0


def cmd_synth(args) -> int:
    if not args.out:
        raise ConfigError("synth needs --out")
    for flag, value in (("--n", args.n), ("--d", args.d)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    _check_synthetic_size(args.n, args.d)
    ds = synthetic_dataset(args.n, args.d, args.seed or 0)
    write_libsvm(ds, args.out)
    print(f"wrote {args.out} ({len(ds)} examples, dim {ds.dim})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="svrgkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    # The run flags train and tune share; each sets its RunConfig field.
    shared = argparse.ArgumentParser(add_help=False, parents=[common])
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--dataset")
    shared.add_argument("--loss")
    shared.add_argument("--flip-fraction", type=float)
    shared.add_argument("--batch-size", type=int)
    shared.add_argument("--m")

    p_train = sub.add_parser("train", help="run one optimizer",
                             parents=[shared])
    p_train.add_argument("--synthetic", metavar="N,D,SEED")
    p_train.add_argument("--objective", choices=("erm", "net"))
    p_train.add_argument("--lambda", dest="lam", type=float)
    p_train.add_argument("--optimizer", choices=OPTIMIZERS)
    p_train.add_argument("--passes", type=float,
                         help="run length in data passes: gd runs "
                              "round(P) steps, sgd round(P*n/b) iterations, "
                              "svrg the whole epochs that fit (at least one)")
    p_train.add_argument("--m0", type=int)
    p_train.add_argument("--lr",
                         help="the step: constant:ETA, poly:ALPHA,BETA or "
                              "adagrad[:ALPHA[,DELTA]]; gd takes constant "
                              "(default 1/L, L the objective's smoothness), "
                              "sgd needs one (adagrad with its ALPHA), svrg "
                              "defaults to 1/(m0*L), a bare adagrad to 1/L")
    p_train.add_argument("--accounting",
                         choices=("auto", "stored", "recompute"))
    p_train.add_argument("--eval-every", dest="eval_every", type=float,
                         help="sgd only: exact evaluation every P passes, "
                              "rounded as --passes is to whole iterations (at "
                              "least one); gd evaluates every step and svrg "
                              "at every snapshot, so either with "
                              "--eval-every is a config error")
    p_train.add_argument("--wall-clock", dest="wall_clock",
                         action="store_true",
                         help="write measured wall times into the trace "
                              "(breaks byte-reproducibility)")
    p_train.set_defaults(func=cmd_train)

    p_tune = sub.add_parser("tune", help="steps I-IV hyperparameter search",
                            parents=[shared])
    p_tune.add_argument("--threads", type=int, default=1)
    p_tune.add_argument("--optimizer", choices=TUNE_OPTIMIZERS)
    p_tune.set_defaults(func=cmd_tune)

    p_verify = sub.add_parser("verify", help="numerical invariant gate",
                              parents=[common])
    p_verify.add_argument("--inject-fault", choices=("sigmoid-scale",),
                          help="deliberately break a check (gate self-test)")
    p_verify.set_defaults(func=cmd_verify)

    p_flip = sub.add_parser("flip", help="negate a fraction of labels",
                            parents=[common])
    p_flip.add_argument("dataset")
    p_flip.add_argument("--fraction", type=float, required=True)
    p_flip.set_defaults(func=cmd_flip)

    p_split = sub.add_parser("split", help="train/validation partition")
    p_split.add_argument("--seed", type=int)
    p_split.add_argument("dataset")
    p_split.add_argument("--train-fraction", dest="train_fraction",
                         type=float, default=0.8)
    p_split.add_argument("--out-train", required=True)
    p_split.add_argument("--out-validation", required=True)
    p_split.set_defaults(func=cmd_split)

    p_synth = sub.add_parser("synth", help="write a synthetic LibSVM file",
                             parents=[common])
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ConfigError, LibsvmFormatError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 2
    except AllDivergedError as e:
        print(f"grid failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
