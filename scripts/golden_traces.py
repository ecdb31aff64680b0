"""Golden-trace hashes: run a fixed list of ``svrgkit train``/``tune``/``verify``
runs and of library SVRG runs, and print one ``name sha256`` line per output
file or library run.

    python scripts/golden_traces.py              # every run
    python scripts/golden_traces.py synth-gd ... # only the named runs
    python scripts/golden_traces.py --list       # the run names

The runs go through ``svrgkit.cli.main`` in-process and write into a
temporary directory.  Input files are generated there from fixed seeds, and
every input path in an output (the trace header echoes the dataset) is
replaced by a placeholder before hashing, so the hashes of two checkouts
agree exactly when their outputs do.  A library run (``lib-*``) calls
``svrg_simple_run`` or ``svrg_full_run`` directly and hashes what no trace
shows: the returned point, the drawn epoch stops and the probe samples,
over every rate, both accountings and three seeds.  svrgkit is imported
from the ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from svrgkit import cli  # noqa: E402
from svrgkit.core import RandomSource  # noqa: E402
from svrgkit.dataio import (Dataset, bundled_dataset_path,  # noqa: E402
                            write_libsvm)
from svrgkit.objectives import make_synthetic  # noqa: E402
from svrgkit.optim import (AdaGradRate, ConstantRate,  # noqa: E402
                           PolynomialRate, SvrgSchedule, svrg_full_run,
                           svrg_simple_run)

# gd reads no batch size, so the base runs give one to the other optimizers.
BUNDLED = ("--dataset", "{bundled}", "--loss", "sigmoid", "--passes", "6",
           "--seed", "3", "--lambda", "1e-4")
SYNTH = ("--synthetic", "128,4,1", "--passes", "8", "--seed", "3",
         "--lambda", "1e-3")
# Values that are not all 1.0, so a change in summation order shows in the
# hashes.  {nonunit} holds the full Gaussian rows `svrgkit synth` writes
# (ERM's dense layout); {sparse} holds Gaussian rows with most entries
# zero, some rows empty (the CSR layout's bincount products).
NONUNIT = ("--loss", "logistic", "--passes", "6", "--seed", "5",
           "--lambda", "1e-3")
SVRG2_VARIANTS = {
    "lam0": ("--lambda", "0"),
    "recompute-b4": ("--accounting", "recompute", "--batch-size", "4"),
    "poly": ("--lr", "poly:0.3,0.5"),
    "adagrad": ("--lr", "adagrad:0.3"),
    "adagrad-default": ("--lr", "adagrad"),     # alpha = 1/L
    "m0eqm": ("--m", "32", "--m0", "32"),
    "m0-4": ("--m", "32", "--m0", "4"),
}
TUNE_GRID = {"lambdas": [1e-4, 1e-2], "alphas": [0.05, 0.5], "passes": 4}


def _train_runs() -> dict[str, tuple[str, ...]]:
    runs = {}
    for tag, base, b in (("bundled", BUNDLED, "1"), ("synth", SYNTH, "4")):
        runs[f"{tag}-gd"] = base + ("--optimizer", "gd")
        base += ("--batch-size", b)
        for opt in ("sgd", "svrg1", "svrg2"):
            lr = ("--lr", "poly:0.3,0.5") if opt == "sgd" else ()
            runs[f"{tag}-{opt}"] = base + ("--optimizer", opt) + lr
        for name, extra in SVRG2_VARIANTS.items():
            runs[f"{tag}-svrg2-{name}"] = base + ("--optimizer", "svrg2") + extra
    # sgd is the one optimizer that reads eval_every
    runs["bundled-sgd-evalevery1"] = runs["bundled-sgd"] + ("--eval-every",
                                                            "1")
    runs["bundled-svrg2-hinge"] = BUNDLED + (
        "--optimizer", "svrg2", "--loss", "hinge:0.1", "--batch-size", "1")
    runs["bundled-svrg2-logistic-b4"] = BUNDLED + (
        "--optimizer", "svrg2", "--loss", "logistic", "--batch-size", "4")
    for tag in ("nonunit", "sparse"):
        base = ("--dataset", f"{{{tag}}}") + NONUNIT
        for opt, b in (("gd", "1"), ("sgd", "8"), ("svrg2", "1"),
                       ("svrg2", "4")):
            lr = ("--lr", "constant:0.5") if opt == "sgd" else ()
            batch = () if opt == "gd" else ("--batch-size", b)
            runs[f"{tag}-{opt}-b{b}"] = (base + ("--optimizer", opt) + batch
                                         + lr)
    runs["nonunit-svrg2-recompute-b4"] = runs["nonunit-svrg2-b4"] + (
        "--accounting", "recompute")
    # squared is the one ERM loss no other run takes
    runs["nonunit-svrg2-squared-b1"] = (
        ("--dataset", "{nonunit}", "--loss", "squared") + NONUNIT[2:]
        + ("--optimizer", "svrg2", "--batch-size", "1"))
    # One epoch at m = 5n/b with recomputed references costs 1 + 2*5 = 11
    # passes at any b.
    for opt, b in (("svrg1", "1"), ("svrg2", "10")):
        runs[f"net-{opt}-b{b}"] = ("--dataset", "{net}", "--objective", "net",
                                   "--optimizer", opt, "--batch-size", b,
                                   "--passes", "11", "--seed", "5")
    return {name: ("train",) + args for name, args in runs.items()}


def _tune_runs() -> dict[str, tuple[str, ...]]:
    runs = {}
    for opt, betas in (("sgd", [0.0, 0.5]), ("svrg1", None), ("svrg2", None)):
        grid = dict(TUNE_GRID, **({"betas": betas} if betas else {}))
        runs[f"tune-{opt}"] = ("tune", "--dataset", "{bundled}",
                               "--optimizer", opt, "--loss", "logistic",
                               "--batch-size", "10", "--seed", "4",
                               "--config", json.dumps({"tune": grid}))
    return runs


# The verification gate's JSON report (every check's detail line).
RUNS = {**_train_runs(), **_tune_runs(),
        "verify-seed0": ("verify", "--seed", "0")}

# Library runs: runner, batch size and m0 at m = 12 on 36 examples.
LIB_M = 12
LIB_RUNS = {f"lib-{opt}-b{b}-" + ("m0eqm" if m0 == LIB_M else f"m0-{m0}"):
            (opt, b, m0)
            for opt in ("svrg1", "svrg2") for b in (1, 3)
            for m0 in (1, 3, LIB_M)}
LIB_RATES = (ConstantRate(0.5), PolynomialRate(0.5, 0.5), AdaGradRate(0.3))


def _write_inputs(tmp: Path) -> dict[str, str]:
    nonunit = tmp / "nonunit.libsvm"
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["synth", "--n", "160", "--d", "12", "--seed", "9",
                       "--out", str(nonunit)])
    if rc != 0:
        raise SystemExit(f"synth exited {rc}")
    rng = np.random.default_rng(13)
    n, d = 160, 12
    sparse = tmp / "sparse.libsvm"
    feats = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.25)
    write_libsvm(Dataset.from_csr(np.arange(0, n * d + 1, d),
                                  np.tile(np.arange(d), n), feats.ravel(),
                                  rng.choice([-1, 1], size=n), dim=d), sparse)
    rng = np.random.default_rng(11)
    n, d, classes = 120, 6, 4
    net = tmp / "net.libsvm"
    write_libsvm(Dataset.from_csr(np.arange(0, n * d + 1, d),
                                  np.tile(np.arange(d), n),
                                  rng.normal(size=n * d),
                                  rng.integers(1, classes + 1, size=n),
                                  dim=d, binary=False), net)
    return {"bundled": str(bundled_dataset_path()), "nonunit": str(nonunit),
            "sparse": str(sparse), "net": str(net)}


def _run(name: str, tmp: Path, inputs: dict[str, str]) -> str:
    argv = list(RUNS[name])
    if argv[0] == "tune":
        config = tmp / f"{name}.json"
        config.write_text(argv[argv.index("--config") + 1])
        argv[argv.index("--config") + 1] = str(config)
    argv = [a.format(**inputs) for a in argv]
    out = tmp / f"{name}.out"
    with redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{name}: svrgkit {' '.join(argv)} exited {rc}")
    text = out.read_text()
    for key, path in inputs.items():
        text = text.replace(path, f"<{key}>")
    return hashlib.sha256(text.encode()).hexdigest()


def _lib_run(name: str) -> str:
    opt, b, m0 = LIB_RUNS[name]
    runner = svrg_simple_run if opt == "svrg1" else svrg_full_run
    schedule = SvrgSchedule(LIB_M, m0, theory_ok=False)
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        obj = make_synthetic(36, 4, seed)
        for lr in LIB_RATES:
            for accounting in ("stored", "recompute"):
                res = runner(obj, np.zeros(obj.dim), schedule, 3, b,
                             RandomSource(seed), lr=lr, accounting=accounting,
                             probe_stride=5)
                probes = [(p.epoch, p.k, p.grad_norm_sq, p.eligible)
                          for p in res.probe_samples]
                digest.update(res.output.tobytes())
                digest.update(repr((res.epoch_stops, probes)).encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="runs to hash (default all)")
    parser.add_argument("--list", action="store_true", help="print run names")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join([*RUNS, *LIB_RUNS]))
        return 0
    unknown = [name for name in args.names
               if name not in RUNS and name not in LIB_RUNS]
    if unknown:
        parser.error(f"unknown runs: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _write_inputs(Path(tmp))
        for name in args.names or [*RUNS, *LIB_RUNS]:
            digest = (_lib_run(name) if name in LIB_RUNS
                      else _run(name, Path(tmp), inputs))
            print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
