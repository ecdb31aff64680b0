"""Workloads of the svrgkit benchmark: their inputs, one operation, its checks.

Every operation is one ``svrgkit train`` or ``svrgkit tune`` run entered
through ``svrgkit.cli.main``, the function the console script calls.  The
benchmark generates or reads the inputs itself and checks each operation's
output against its own reading of the data, so that a wrong answer counts
as a failed operation however fast it was.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from svrgkit import dataio

# The scaled sigmoid loss 6*sqrt(3) / (1 + e^t), written out again here so
# that the objective check does not run the code it checks.
_SIGMOID_SCALE = 6.0 * math.sqrt(3.0)
# Relative agreement required between the benchmark's own evaluation of f at
# the returned point and the library's full_value_and_gradient.
_VALUE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# the benchmark's own view of a LibSVM file
# ---------------------------------------------------------------------------


@dataclass
class Sparse:
    """Rows of a LibSVM file: CSR arrays with 0-based columns."""

    labels: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int

    @property
    def n(self) -> int:
        return int(self.labels.size)


def read_libsvm(path: Path) -> Sparse:
    """Plain reader for the LibSVM files the workloads use."""
    labels, indptr, cols, vals = [], [0], [], []
    with open(path) as fh:
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            labels.append(float(toks[0]))
            for tok in toks[1:]:
                j, v = tok.split(":")
                cols.append(int(j) - 1)
                vals.append(float(v))
            indptr.append(len(cols))
    cols_a = np.asarray(cols, dtype=np.int64)
    return Sparse(np.asarray(labels), np.asarray(indptr, dtype=np.int64),
                  cols_a, np.asarray(vals), int(cols_a.max()) + 1)


def erm_value(data: Sparse, loss: str, lam: float, x: np.ndarray) -> float:
    """f(x) = mean_i loss(y_i <a_i, x>) + lam/2 ||x||^2, evaluated in numpy."""
    rows = np.repeat(np.arange(data.n), np.diff(data.indptr))
    t = data.labels * np.bincount(rows, weights=data.vals * x[data.cols],
                                  minlength=data.n)
    if loss == "sigmoid":
        per_row = _SIGMOID_SCALE * np.exp(-np.logaddexp(0.0, t))
    elif loss == "logistic":
        per_row = np.logaddexp(0.0, -t)
    else:
        raise ValueError(f"no reference for loss {loss!r}")
    return float(per_row.mean() + 0.5 * lam * np.dot(x, x))


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def write_sparse_binary(path: Path, rng: np.random.Generator, n: int, d: int,
                        nnz: int) -> None:
    """n rows with exactly ``nnz`` unit features out of d; labels split at the
    median score of a planted linear model, so the classes are n/2 each."""
    cols = np.stack([np.sort(rng.choice(d, nnz, replace=False))
                     for _ in range(n)])
    if cols.max() != d - 1:
        # The parser infers d from the largest index, so one row carries it.
        cols[0] = np.sort(np.append(rng.choice(d - 1, nnz - 1, replace=False),
                                    d - 1))
    w = rng.standard_normal(d)
    score = w[cols].sum(axis=1) + 2.0 * rng.standard_normal(n)
    labels = np.where(score > np.median(score), 1, -1)
    with open(path, "w") as fh:
        for y, row in zip(labels, cols + 1):
            fh.write(f"{y:+d} " + " ".join(f"{j}:1" for j in row) + "\n")


def write_dense_multiclass(path: Path, rng: np.random.Generator, n: int,
                           d: int, classes: int) -> None:
    """Gaussian clusters around one random centre per class; labels 1..C
    drawn uniformly.  The class counts come out uneven, which keeps the
    network's all-zero start from being an exact stationary point."""
    centres = rng.standard_normal((classes, d))
    labels = rng.integers(1, classes + 1, n)
    feats = centres[labels - 1] + rng.standard_normal((n, d))
    with open(path, "w") as fh:
        for y, row in zip(labels, feats):
            fh.write(f"{y} " + " ".join(f"{j}:{float(v)!r}"
                                        for j, v in enumerate(row, 1)) + "\n")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """What set-up hands to the operations."""

    path: Path
    data: Sparse
    config: Path | None = None


@dataclass
class OpOutcome:
    """One operation as the benchmark saw it."""

    op_id: int
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    runs: list = field(default_factory=list)    # (objective, RunResult)
    chosen_run: int = 0                          # the run whose output counts
    diverged_cells: int = 0

    @property
    def grad_evals(self) -> int:
        return sum(r.grad_evals for _, r in self.runs)

    @property
    def passes(self) -> float:
        return sum(r.passes for _, r in self.runs)


@dataclass(frozen=True)
class Workload:
    """One operation's command line, inputs and checks; BENCHMARK.json says
    why the workload is there."""

    name: str
    kind: str                        # "train" or "tune"
    args: tuple[str, ...]            # CLI flags besides dataset/seed/out
    shape: dict                      # promised shape of the inputs
    generate: str | None = None      # None: the bundled a9a-like file
    grid: dict | None = None         # tune's "tune" config section

    def flag(self, name: str) -> str | None:
        return self.args[self.args.index(name) + 1] if name in self.args \
            else None

    @property
    def passes(self) -> float:
        """Pass budget one optimizer run requests."""
        return float(self.grid["passes"] if self.grid else self.flag("--passes"))

    @property
    def cells(self) -> int:
        """Optimizer runs in one operation."""
        if self.grid is None:
            return 1
        return math.prod(len(self.grid[k]) for k in ("lambdas", "alphas",
                                                      "betas"))

    def prepare(self, rng: np.random.Generator, work: Path) -> Inputs:
        """Generate or read the inputs and check their shape."""
        if self.generate == "sparse_binary":
            path = work / "data.libsvm"
            write_sparse_binary(path, rng, self.shape["n"], self.shape["d"],
                                self.shape["nnz"])
        elif self.generate == "dense_multiclass":
            path = work / "data.libsvm"
            write_dense_multiclass(path, rng, self.shape["n"], self.shape["d"],
                                   self.shape["classes"])
        else:
            path = dataio.bundled_dataset_path()
        data = read_libsvm(path)
        check_shape(data, self.shape)
        config = None
        if self.kind == "tune":
            config = work / "tune.json"
            config.write_text(json.dumps({"tune": self.grid}))
        return Inputs(path, data, config)

    def argv(self, inputs: Inputs, seed: int, out: Path) -> list[str]:
        head = [self.kind, "--dataset", str(inputs.path)]
        if inputs.config is not None:
            head += ["--config", str(inputs.config)]
        return head + list(self.args) + ["--seed", str(seed), "--out", str(out)]

    def check(self, outcome: OpOutcome, rc, stdout: str, inputs: Inputs,
              out: Path) -> None:
        """Append every failed check to ``outcome.problems``."""
        problems = outcome.problems
        if rc != 0:
            problems.append(f"exit status {rc!r}")
            return
        for _, result in outcome.runs:
            problems.extend(trace_problems(result.trace))
        if self.kind == "train":
            if len(outcome.runs) != 1:
                problems.append(f"{len(outcome.runs)} optimizer runs, not 1")
                return
            problems.extend(trace_problems(dataio.read_trace(out)))
            obj, result = outcome.runs[0]
            if self.flag("--loss") is not None:
                problems.extend(value_problems(
                    inputs.data, self.flag("--loss"),
                    float(self.flag("--lambda")), obj, result.output))
        else:
            problems.extend(tune_problems(outcome, stdout, out, self.cells))


def check_shape(data: Sparse, shape: dict) -> None:
    """Raise if the inputs do not have the shape the workload promises."""
    found = {"n": data.n, "d": data.dim}
    if "nnz" in shape:
        found["nnz"] = data.cols.size / data.n
    for key, want in found.items():
        if key in shape and want != shape[key]:
            raise ValueError(f"inputs have {key}={want}, expected {shape[key]}")
    counts = np.unique(data.labels, return_counts=True)[1]
    if "classes" in shape:
        if counts.size != shape["classes"] or counts.min() < data.n / (
                4 * shape["classes"]):
            raise ValueError(f"class counts {counts.tolist()} are too uneven")
    elif counts.size != 2:
        raise ValueError(f"binary inputs have {counts.size} labels")
    elif shape.get("balanced") and counts[0] != counts[1]:
        raise ValueError(f"class counts {counts.tolist()} are not balanced")


def trace_problems(records) -> list[str]:
    if not records:
        return ["empty trace"]
    rows = np.array([(r.passes, r.objective, r.grad_norm_sq) for r in records])
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite trace entry")
    if np.any(np.diff(rows[:, 0]) < 0):
        problems.append("trace passes decrease")
    return problems


def value_problems(data: Sparse, loss: str, lam: float, obj, x) -> list[str]:
    ours = erm_value(data, loss, lam, x)
    theirs = obj.full_value_and_gradient(x)[0]
    if not abs(ours - theirs) <= _VALUE_RTOL * abs(ours):
        return [f"f at the output is {theirs!r}, recomputed {ours!r}"]
    return []


_BEST = re.compile(r"best lambda=(\S+) alpha=(\S+) beta=(\S+)")
_ACCURACY = re.compile(r"best val_accuracy=(\S+)")


def tune_problems(outcome: OpOutcome, stdout: str, cells_csv: Path,
                  grid: int) -> list[str]:
    """Cells CSV parses, some cell converged, the chosen accuracy is a
    fraction; records which captured run is the chosen cell."""
    try:
        with open(cells_csv) as fh:
            rows = list(csv.DictReader(fh))
        cells = [(int(r["cell_id"]), float(r["lambda"]), float(r["alpha"]),
                  float(r["beta"]), int(r["diverged"])) for r in rows]
    except (OSError, KeyError, ValueError) as e:
        return [f"cells CSV does not parse: {e}"]
    problems = []
    if len(cells) != grid or len(outcome.runs) != grid:
        problems.append(f"{len(cells)} cells and {len(outcome.runs)} runs, "
                        f"expected {grid}")
    outcome.diverged_cells = sum(c[4] for c in cells)
    if outcome.diverged_cells == len(cells):
        problems.append("every cell diverged")
    best, acc = _BEST.search(stdout), _ACCURACY.search(stdout)
    if best is None or acc is None:
        return problems + ["no chosen cell in the output"]
    if not 0.0 <= float(acc.group(1)) <= 1.0:
        problems.append(f"validation accuracy {acc.group(1)} outside [0, 1]")
    chosen = tuple(float(v) for v in best.groups())
    ids = [c[0] for c in cells if c[1:4] == chosen]
    if len(ids) != 1:
        problems.append(f"chosen cell {chosen} not found once in the CSV")
    else:
        outcome.chosen_run = ids[0]
    return problems


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "a9a-svrg2-b1", "train",
            ("--loss", "sigmoid", "--lambda", "1e-4", "--optimizer", "svrg2",
             "--batch-size", "1", "--passes", "20"),
            shape={"n": 2000, "d": 123}),
        Workload(
            "highdim-svrg2-b1", "train",
            ("--loss", "logistic", "--lambda", "1e-4", "--optimizer", "svrg2",
             "--batch-size", "1", "--passes", "2"),
            shape={"n": 4000, "d": 50000, "nnz": 20, "balanced": True},
            generate="sparse_binary"),
        Workload(
            "a9a-tune-sgd-b100", "tune",
            ("--optimizer", "sgd", "--threads", "1"),
            shape={"n": 2000, "d": 123},
            grid={"lambdas": [1e-4, 1e-2], "alphas": [0.01, 0.1, 1.0],
                  "betas": [0.0, 0.5], "passes": 5.0}),
        Workload(
            "net-svrg2-b10", "train",
            ("--objective", "net", "--optimizer", "svrg2", "--batch-size", "10",
             "--passes", "12"),
            shape={"n": 1000, "d": 50, "nnz": 50, "classes": 10},
            generate="dense_multiclass"),
    ]
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of a workload for the smoke test."""
    args = list(w.args)
    if "--passes" in args:
        args[args.index("--passes") + 1] = "2"
    shape = dict(w.shape)
    if w.generate == "sparse_binary":
        shape.update(n=200, d=2000)
    elif w.generate == "dense_multiclass":
        shape.update(n=100, d=8, nnz=8)
    grid = None if w.grid is None else dict(w.grid, lambdas=w.grid["lambdas"][:1],
                                            alphas=w.grid["alphas"][:1],
                                            passes=1.0)
    return replace(w, args=tuple(args), shape=shape, grid=grid)
