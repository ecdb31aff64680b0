"""Spans around svrgkit's layer entry points, installed at run time.

The benchmark wraps the public functions and methods through which each
layer is entered; svrgkit's own source is not touched.  Each call records
one span (name, start, end, parent, operation id) in memory; the spans are
written out when the run ends and reduced to the per-layer metrics here.
"""

from __future__ import annotations

import array
import functools
import time
from pathlib import Path

import numpy as np

from svrgkit import cli, core, dataio, objectives, optim

ROOT = "cli.main"
OPTIMIZER = "optim.run"
# The optimizer entry points the CLI calls; their RunResult is the ledger.
OPTIMIZER_NAMES = ("gd_run", "sgd_run", "svrg_simple_run", "svrg_full_run")


def targets() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped entry point.

    Functions the CLI imported by name are wrapped in the ``cli`` namespace,
    where they are looked up at call time; methods are wrapped on the class
    that defines them.
    """
    erm, net = objectives.ErmObjective, objectives.TwoLayerNet
    base, rng = objectives.FiniteSumObjective, core.RandomSource
    return [
        (ROOT, cli, "main"),
        ("dataio.parse", cli, "parse_libsvm"),
        ("dataio.subset", dataio.Dataset, "subset"),
        ("dataio.example", dataio.Dataset, "example"),
        ("dataio.write_trace", cli, "write_trace"),
        ("losses.eval_loss", objectives, "eval_loss"),
        ("objectives.full_pass", erm, "full_value_and_gradient"),
        ("objectives.full_pass", base, "full_value_and_gradient"),
        ("objectives.snapshot", erm, "build_snapshot"),
        ("objectives.snapshot", base, "build_snapshot"),
        # The engine resolves the fused estimator by attribute lookup and
        # the generic one through a module global, so both see the wrapper.
        ("objectives.estimator", erm, "fused_svrg_estimator"),
        ("objectives.estimator", optim, "_generic_estimator"),
        ("objectives.batch_grad", erm, "batch_mean_grad"),
        ("objectives.net_component", net, "component"),
        ("objectives.accuracy", erm, "accuracy"),
        ("core.rng", rng, "draw_indices"),
        ("core.rng", rng, "uniforms"),
        ("core.rng", rng, "choice_weighted"),
    ] + [(OPTIMIZER, cli, name) for name in OPTIMIZER_NAMES]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def apply(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store; ``op`` tags the spans of the current operation."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op_of = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.op = -1
        self._stack = [-1]

    def wrapper(self, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock, stack = time.perf_counter, self._stack
        names, parents, ops = self.name, self.parent, self.op_of
        starts, ends = self.start, self.end

        def make(fn):
            def traced(*args, **kwargs):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ops.append(self.op)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
            return traced
        return make

    def install(self) -> Patches:
        patches = Patches()
        for name, owner, attr in targets():
            patches.apply(owner, attr, self.wrapper(name))
        return patches

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name,
                 parent=self.parent, op=self.op_of, start=self.start,
                 end=self.end)


class SpanTable:
    """Column view of the recorded spans with per-span self time."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.op = np.frombuffer(tracer.op_of, dtype=np.int64)
        self.dur = (np.frombuffer(tracer.end, dtype=np.float64)
                    - np.frombuffer(tracer.start, dtype=np.float64))
        has_parent = self.parent >= 0
        self.children = np.bincount(self.parent[has_parent],
                                    weights=self.dur[has_parent],
                                    minlength=self.dur.size)
        self.parent_name = np.where(
            has_parent, self.name[np.maximum(self.parent, 0)], -1)

    def is_(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str, parent: str) -> np.ndarray:
        """Spans called directly from a span of another name."""
        if parent not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.is_(name) & (self.parent_name == self.names.index(parent))

    def per_call(self, name: str, scale: float) -> float:
        mask = self.is_(name)
        return float(self.dur[mask].sum() / mask.sum() * scale) if mask.any() \
            else 0.0


def layer_metrics(table: SpanTable, traced: list, untraced_p50: float,
                  budget: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``traced`` holds the traced operations' outcomes in order; counts are
    those of ``first``, the first traced operation, so they depend on the
    seed alone.  Times are per call over all traced operations.  ``budget``
    is the pass budget one operation requests over all its runs.
    """
    first = traced[0]
    one = table.op == first.op_id
    optim_spans = table.is_(OPTIMIZER)
    steps = table.under("objectives.estimator", OPTIMIZER) | table.under(
        "objectives.batch_grad", OPTIMIZER)
    full = table.under("objectives.snapshot", OPTIMIZER) | table.under(
        "objectives.full_pass", OPTIMIZER)
    n_steps = int(steps.sum())
    loop_s = float(table.dur[optim_spans].sum() - table.dur[full].sum())
    self_s = float((table.dur - table.children)[optim_spans].sum())
    # Component evaluations charged to inner steps: the ledger minus n per
    # full pass the optimizer made (snapshots, checkpoints, the final pass).
    inner_evals = sum(o.grad_evals - o.runs[0][0].n * int(
        (full & (table.op == o.op_id)).sum()) for o in traced)
    n = first.runs[0][0].n
    full_pass_ms = table.per_call("objectives.full_pass", 1e3)
    per_inner = loop_s * 1e6 / inner_evals if inner_evals else 0.0
    per_full = full_pass_ms * 1e3 / n
    root = table.is_(ROOT)
    op_s = float(np.median([o.seconds for o in traced]))
    obj, result = first.runs[first.chosen_run]
    grad = obj.full_value_and_gradient(result.output)[1]

    def calls(name: str) -> int:
        return int((table.is_(name) & one).sum())

    return {
        "dataio.parse_ms": table.per_call("dataio.parse", 1e3),
        "dataio.parse_calls": calls("dataio.parse"),
        "dataio.subset_ms": table.per_call("dataio.subset", 1e3),
        "dataio.subset_calls": calls("dataio.subset"),
        "dataio.example_us": table.per_call("dataio.example", 1e6),
        "dataio.example_calls": calls("dataio.example"),
        "dataio.write_trace_ms": table.per_call("dataio.write_trace", 1e3),
        "losses.eval_loss_us": table.per_call("losses.eval_loss", 1e6),
        "losses.eval_loss_calls": calls("losses.eval_loss"),
        "objectives.full_pass_ms": full_pass_ms,
        "objectives.full_pass_calls": calls("objectives.full_pass"),
        "objectives.snapshot_ms": table.per_call("objectives.snapshot", 1e3),
        "objectives.snapshot_calls": calls("objectives.snapshot"),
        "objectives.estimator_us": table.per_call("objectives.estimator", 1e6),
        "objectives.estimator_calls": calls("objectives.estimator"),
        "objectives.batch_grad_us": table.per_call("objectives.batch_grad",
                                                   1e6),
        "objectives.batch_grad_calls": calls("objectives.batch_grad"),
        "objectives.net_component_us": table.per_call(
            "objectives.net_component", 1e6),
        "objectives.net_component_calls": calls("objectives.net_component"),
        "objectives.accuracy_ms": table.per_call("objectives.accuracy", 1e3),
        "objectives.us_per_component_inner": per_inner,
        "objectives.us_per_component_full": per_full,
        "objectives.inner_over_full_cost": per_inner / per_full
        if per_full else 0.0,
        "core.rng_us": table.per_call("core.rng", 1e6),
        "core.rng_calls": calls("core.rng"),
        "optim.inner_steps": int((steps & one).sum()),
        "optim.inner_step_us": loop_s * 1e6 / n_steps if n_steps else 0.0,
        "optim.self_us_per_step": self_s * 1e6 / n_steps if n_steps else 0.0,
        "optim.grad_evals": first.grad_evals,
        "optim.passes_over_budget": first.passes / budget,
        "optim.grad_sq_at_output": float(grad @ grad),
        "optim.diverged_cells": first.diverged_cells,
        "cli.self_ms": float((table.dur - table.children)[root].mean() * 1e3),
        "trace.overhead_pct": (op_s / untraced_p50 - 1.0) * 100.0,
    }
