"""Deterministic RNG plumbing tests."""

from repro.util.rngtools import SeedSequenceFactory


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

