"""Golden-trace hashes: run a fixed list of ``svrgkit train``/``tune``/``verify``
runs and print one ``name sha256`` line per output file.

    python scripts/golden_traces.py              # every run
    python scripts/golden_traces.py synth-gd ... # only the named runs
    python scripts/golden_traces.py --list       # the run names

The runs go through ``svrgkit.cli.main`` in-process and write into a
temporary directory.  Input files are generated there from fixed seeds, and
every input path in an output (the trace header echoes the dataset) is
replaced by a placeholder before hashing, so the hashes of two checkouts
agree exactly when their outputs do.  svrgkit is imported from the ``src/``
next to this script.
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
from svrgkit.dataio import (Dataset, bundled_dataset_path,  # noqa: E402
                            write_libsvm)

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
    "evalevery1": ("--eval-every", "1"),
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
        runs[f"{tag}-svrg1-evalevery1"] = base + ("--optimizer", "svrg1",
                                                  "--eval-every", "1")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="runs to hash (default all)")
    parser.add_argument("--list", action="store_true", help="print run names")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(RUNS))
        return 0
    unknown = [name for name in args.names if name not in RUNS]
    if unknown:
        parser.error(f"unknown runs: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _write_inputs(Path(tmp))
        for name in args.names or RUNS:
            print(f"{name} {_run(name, Path(tmp), inputs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
