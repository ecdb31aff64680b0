import contextlib
import io

import pytest

from svrgkit.cli import main


@pytest.fixture(scope="session")
def synth(tmp_path_factory):
    """``synth(n, d, seed)``: the path of the LibSVM file that
    ``svrgkit synth --n N --d D --seed SEED`` writes, made once a session
    for each instance.  Tests train on it with --dataset."""
    root = tmp_path_factory.mktemp("synth")

    def path(n: int, d: int, seed: int) -> str:
        out = root / f"{n}x{d}-seed{seed}.libsvm"
        if not out.exists():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["synth", "--n", str(n), "--d", str(d), "--seed",
                             str(seed), "--out", str(out)]) == 0
        return str(out)

    return path
