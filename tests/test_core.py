import numpy as np
import pytest

from svrgkit.core import RandomSource, sq_norm


class TestSqNorm:
    def test_three_four(self):
        assert sq_norm(np.array([3.0, 4.0])) == 25.0

    def test_zero(self):
        assert sq_norm(np.zeros(5)) == 0.0

    def test_ones(self):
        assert sq_norm(np.ones(4)) == 4.0

    def test_equals_dot_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=8)
            assert sq_norm(v) == float(np.dot(v, v))


class TestRandomSource:
    def test_degenerate_support(self):
        rng = RandomSource(0)
        assert all(rng.draw_index(1) == 1 for _ in range(10))

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            RandomSource(0).draw_index(0)

    def test_replay_is_bit_exact(self):
        a = RandomSource(123)
        b = RandomSource(123)
        seq_a = [a.draw_index(1000) for _ in range(100)] + list(a.uniforms(50))
        seq_b = [b.draw_index(1000) for _ in range(100)] + list(b.uniforms(50))
        assert seq_a == seq_b

    def test_batch_matches_contract(self):
        idx = RandomSource(5).draw_indices(7, 1000)
        assert idx.min() >= 1 and idx.max() <= 7

    def test_uniformity_chi_square_bucket_counts(self):
        # 40000 draws over 4 buckets: each count within [9500, 10500].
        idx = RandomSource(42).draw_indices(4, 40_000)
        counts = np.bincount(idx, minlength=5)[1:]
        assert counts.sum() == 40_000
        assert counts.min() >= 9500 and counts.max() <= 10500

    def test_frequencies_within_five_sigma(self):
        n = 4
        draws = 10_000 * n
        idx = RandomSource(7).draw_indices(n, draws)
        counts = np.bincount(idx, minlength=n + 1)[1:]
        sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - draws / n) <= 5 * sigma)

    def test_fork_is_deterministic_and_distinct(self):
        base = RandomSource(9)
        child_a = base.fork(3)
        child_b = RandomSource(9).fork(3)
        other = RandomSource(9).fork(4)
        seq = [child_a.uniform() for _ in range(5)]
        assert seq == [child_b.uniform() for _ in range(5)]
        assert seq != [other.uniform() for _ in range(5)]

    def test_fork_does_not_disturb_parent(self):
        a = RandomSource(11)
        b = RandomSource(11)
        a.fork(0)
        assert a.uniform() == b.uniform()

    def test_choice_weighted_degenerate(self):
        rng = RandomSource(1)
        assert all(rng.choice_weighted(np.array([1.0])) == 0
                   for _ in range(5))
