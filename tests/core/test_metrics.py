"""SAF metric tests."""

import math

from repro.core.metrics import seek_amplification
from repro.core.outcomes import SimStats


def stats(read=0, write=0, defrag=0):
    return SimStats(read_seeks=read, write_seeks=write, defrag_write_seeks=defrag)


class TestSeekAmplification:
    def test_basic_ratios(self):
        saf = seek_amplification(stats(read=20, write=2), stats(read=10, write=10))
        assert saf.read == 2.0
        assert saf.write == 0.2
        assert saf.total == 1.1

    def test_defrag_counts_as_write_seeks(self):
        saf = seek_amplification(stats(read=0, write=1, defrag=4), stats(read=5, write=5))
        assert saf.write == 1.0
        assert saf.total == 0.5

    def test_zero_baseline_with_seeks_is_inf(self):
        saf = seek_amplification(stats(read=5), stats())
        assert math.isinf(saf.read)
        assert math.isinf(saf.total)

    def test_zero_over_zero_is_one(self):
        saf = seek_amplification(stats(), stats())
        assert saf.read == saf.write == saf.total == 1.0
