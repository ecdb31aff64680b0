import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden_traces.py"
GOLDEN = ROOT / "GOLDEN_TRACES.txt"
# ERM's dense layout (synth, nonunit), its CSR layout (sparse) and a network
SUBSET = ["synth-svrg2", "nonunit-svrg2-b4", "sparse-sgd-b8", "net-svrg1-b1"]


def hashes(names):
    out = subprocess.run([sys.executable, str(SCRIPT), *names],
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def test_two_invocations_print_the_same_hashes():
    first = hashes(SUBSET)
    assert [line.split()[0] for line in first] == SUBSET
    assert all(re.fullmatch(r"[a-z0-9-]+ [0-9a-f]{64}", line)
               for line in first)
    assert len({line.split()[1] for line in first}) == len(SUBSET)
    assert hashes(SUBSET) == first


def test_lists_every_run():
    names = hashes(["--list"])
    assert set(SUBSET) <= set(names)
    assert {"tune-sgd", "tune-svrg1", "tune-svrg2"} <= set(names)
    assert len(names) == len(set(names))


def test_every_run_matches_the_golden_file():
    lines = GOLDEN.read_text().splitlines()
    made_with = [line for line in lines if line.startswith("#")][-1]
    want = dict(line.split() for line in lines if not line.startswith("#"))
    got = dict(line.split() for line in hashes([]))
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, (
        f"outputs differ from {GOLDEN.name} (made with {made_with[2:]}; here "
        f"numpy {np.__version__}, scipy {scipy.__version__}): {changed}")
