import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_traces.py"
SUBSET = ["synth-svrg2", "nonunit-svrg2-b4", "nonunit-sgd-b8", "net-svrg1-b1"]


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
