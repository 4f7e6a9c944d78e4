"""Deterministic RNG plumbing tests."""

import pytest

from repro.util.rngtools import SeedSequenceFactory, zipf_weights


class TestSeedSequenceFactory:
    def test_same_label_same_seed(self):
        factory = SeedSequenceFactory(7)
        assert factory.seed_for("a") == factory.seed_for("a")

    def test_different_labels_differ(self):
        factory = SeedSequenceFactory(7)
        assert factory.seed_for("a") != factory.seed_for("b")

    def test_different_roots_differ(self):
        assert SeedSequenceFactory(1).seed_for("a") != SeedSequenceFactory(2).seed_for("a")

    def test_rng_streams_reproducible(self):
        a = SeedSequenceFactory(42).rng_for("writes")
        b = SeedSequenceFactory(42).rng_for("writes")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_rng_streams_independent_of_order(self):
        f1 = SeedSequenceFactory(42)
        r1 = f1.rng_for("a").random()
        f2 = SeedSequenceFactory(42)
        f2.rng_for("zzz")  # consuming another stream first must not matter
        assert f2.rng_for("a").random() == r1


class TestZipfWeights:
    def test_normalized(self):
        assert abs(sum(zipf_weights(100, 1.1)) - 1.0) < 1e-9

    def test_monotone_decreasing(self):
        weights = zipf_weights(10, 0.8)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_alpha_zero_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(abs(w - 0.25) < 1e-12 for w in weights)

    def test_higher_alpha_more_skew(self):
        flat = zipf_weights(50, 0.5)
        steep = zipf_weights(50, 2.0)
        assert steep[0] > flat[0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -0.1)
