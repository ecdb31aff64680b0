"""Vector primitives and the deterministic random-number contract.

All arithmetic is 64-bit floating point.  Parameter vectors are plain 1-D
``numpy.float64`` arrays; sparse features live in a Dataset's CSR arrays
(``dataio``).  :class:`RandomSource` wraps numpy's Philox bit
generator (counter-based) so that identical seed + identical call sequence
reproduces identical output streams bit-exactly, and child streams for
parallel runs are derived from (seed, child_id) alone.
"""

from __future__ import annotations

import numpy as np


def sq_norm(v: np.ndarray) -> float:
    """Squared Euclidean norm."""
    return float(np.dot(v, v))


class RandomSource:
    """Seeded, replayable random stream.

    Backed by numpy's Philox generator (counter-based): a given (seed,
    spawn_key) pair plus a fixed call sequence yields a bit-identical output
    stream.  Parallel work forks children with :meth:`fork`; child streams
    are statistically independent and fully determined by (seed, child_id).
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def fork(self, child_id: int) -> "RandomSource":
        """Derive an independent child stream for run ``child_id``."""
        return RandomSource(self.seed, self.spawn_key + (int(child_id),))

    def draw_index(self, n: int) -> int:
        """Uniform 1-based index in {1..n}."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return int(self._gen.integers(1, n + 1))

    def draw_indices(self, n: int, size: int) -> np.ndarray:
        """Batch of ``size`` uniform 1-based indices in {1..n}."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return self._gen.integers(1, n + 1, size=size)

    def uniform(self) -> float:
        return float(self._gen.random())

    def uniforms(self, size: int) -> np.ndarray:
        return self._gen.random(size)

    def normals(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_weighted(self, probs: np.ndarray) -> int:
        """0-based index drawn with the given probabilities (must sum to 1)."""
        cum = np.cumsum(probs)
        u = self.uniform() * cum[-1]
        return int(np.searchsorted(cum, u, side="right").clip(0, len(probs) - 1))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"

