"""svrgkit benchmark: closed-loop train/tune operations through svrgkit.cli.

Run from the repository root:

    python3 perfbench/run.py --workload a9a-svrg2-b1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One caller runs one operation after another, each a ``svrgkit train`` or
``svrgkit tune`` entered through ``svrgkit.cli.main`` with a seed forked
from ``--seed``, and checks every operation's output.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics from spans the
benchmark wraps around svrgkit's entry points.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "work"
# Set-up is repeated and its median reported, so that one slow set-up
# (page cache, allocator) does not decide setup_s.
SETUP_REPEATS = 3
# op_s_tail is the highest percentile with at least this many samples above.
TAIL_SAMPLES = 10


def machine() -> dict:
    """Interpreter, libraries and processors the result was measured on."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": blas, "blas_threads": blas_threads()}


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def fork_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


class Runner:
    """Runs one workload's operations in this process and checks them."""

    def __init__(self, workload, seed: int, work: Path):
        from spans import OPTIMIZER_NAMES, Patches
        from svrgkit import cli

        self.workload, self.seed, self.work = workload, seed, work
        self.cli = cli
        self.inputs = None
        self.runs: list = []
        # Every run's RunResult is kept: it is the ledger and the output.
        capture = Patches()
        for name in OPTIMIZER_NAMES:
            capture.apply(cli, name, self._capturing)

    def _capturing(self, fn):
        def run(obj, *args, **kwargs):
            result = fn(obj, *args, **kwargs)
            self.runs.append((obj, result))
            return result
        return run

    def set_up(self):
        self.inputs = self.workload.prepare(
            np.random.default_rng(np.random.SeedSequence(self.seed,
                                                          spawn_key=(0,))),
            self.work)

    def op(self, op_id: int, key: tuple[int, ...], tracer=None):
        from workloads import OpOutcome

        wl = self.workload
        out = self.work / ("cells.csv" if wl.kind == "tune" else "trace.csv")
        out.unlink(missing_ok=True)
        argv = wl.argv(self.inputs, fork_seed(self.seed, *key), out)
        self.runs = []
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        patches = None
        if tracer is not None:
            tracer.op = op_id
            patches = tracer.install()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception:  # a crash is a failed operation
                    rc = traceback.format_exc()
                seconds = time.perf_counter() - t0
        finally:
            if patches is not None:
                patches.undo()
        outcome = OpOutcome(op_id, seconds, runs=self.runs)
        try:
            wl.check(outcome, rc, stdout.getvalue(), self.inputs, out)
        except Exception:  # a check that cannot run fails the operation
            outcome.problems.append(traceback.format_exc())
        for problem in outcome.problems:
            print(f"{wl.name} op {op_id} failed: {problem}", file=sys.stderr)
        return outcome


def tail(times: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with TAIL_SAMPLES samples above it;
    the maximum when there are too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], f"max of {n}"
    return ordered[n - TAIL_SAMPLES - 1], f"p{100 * (n - TAIL_SAMPLES) / n:.1f}"


def run_workload(args, workload, spec: dict, host: dict) -> dict:
    from spans import SpanTable, Tracer, layer_metrics

    work = WORK / (("tiny-" if args.tiny else "") + workload.name)
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, work)
    outcomes, setup = [], []
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runner.set_up()
        outcomes.append(runner.op(-1 - r, (2, r)))
        setup.append(time.perf_counter() - t0)

    # A traced run alternates untraced and traced operations, so that the
    # tracing overhead is measured against operations of the same moment.
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        spans_on = tracer is not None and k % 2 == 1
        o = runner.op(k, (1, k), tracer if spans_on else None)
        (traced if spans_on else plain).append(o)
        k += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    outcomes += plain + traced
    failed = sum(1 for o in outcomes if o.problems)
    times = [o.seconds for o in plain]
    p50 = float(np.median(times))

    if tracer is None:
        tail_s, tail_at = tail(times)
        busy = sum(times)
        values = {
            "setup_s": float(np.median(setup)),
            "op_s_p50": p50,
            "op_s_tail": tail_s,
            "evals_per_s": sum(o.grad_evals for o in plain) / busy,
            "cells_per_s": workload.cells * len(plain) / busy,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {"setup_s": f"median of {len(setup)} set-ups",
                 "op_s_p50": f"n={len(times)}",
                 "op_s_tail": f"{tail_at}, n={len(times)}"}
    else:
        tracer.save(work / f"spans-seed{args.seed}.npz")
        good = [o for o in traced if not o.problems]
        values = layer_metrics(SpanTable(tracer), good, p50,
                               workload.passes * workload.cells) if good \
            else {m["name"]: 0 for m in spec["per_layer"]}
        notes = {"trace.overhead_pct": f"{len(traced)} traced against "
                                       f"{len(plain)} untraced operations"}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in values.items()}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"workload {workload.name}: {why}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {m['value']!r} {m['unit']}{note}")
    print(f"  error_rate = {failed / len(outcomes)!r} "
          f"({failed} of {len(outcomes)} operations failed)")
    result = {"correct": failed == 0, "attempted": len(outcomes),
              "failed": failed, "metrics": metrics}
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed,
                    "seconds": args.seconds, "machine": host,
                    "notes": notes, "setup_seconds": setup,
                    "op_seconds": times, **result}, indent=1) + "\n")
    return result


def run_all(args, names: list[str]) -> dict:
    """Each workload in its own process, so peak_rss_mb is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{name}/{k}": v
                                 for k, v in one["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop (at least one "
                             "operation runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-sized inputs, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "svrgkit" / "__init__.py").is_file():
        print(f"svrgkit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload == "all":
        result = run_all(args, names)
    elif args.workload in workloads.WORKLOADS:
        workload = workloads.WORKLOADS[args.workload]
        if args.tiny:
            workload = workloads.tiny(workload)
        host = machine()
        print("machine: " + json.dumps(host, sort_keys=True))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run_workload(args, workload, spec, host)
    else:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
