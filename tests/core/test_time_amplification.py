"""Time-amplification (TAF) metric tests."""

import math

from repro.core.metrics import time_amplification
from repro.disk.seek_time import TRACK_SECTORS


class TestTimeAmplification:
    def test_identity(self):
        distances = [10_000, -10_000, 5_000_000]
        assert time_amplification(distances, distances) == 1.0

    def test_zero_over_zero(self):
        assert time_amplification([], []) == 1.0
        assert time_amplification([0, 0], [0]) == 1.0

    def test_inf_when_baseline_free(self):
        assert math.isinf(time_amplification([10_000_000], []))

    def test_default_model(self):
        assert time_amplification([1000], [1000]) == 1.0

    def test_missed_rotations_cost_more_than_count_suggests(self):
        # Equal seek *counts*, but the translated replay's seeks are
        # short backward hops (missed rotations) while the baseline's are
        # short forward skips: TAF far exceeds the SAF of 1.0.
        translated = [-8] * 100
        baseline = [8] * 100
        taf = time_amplification(translated, baseline)
        assert taf > 10.0

    def test_long_seeks_dominated_by_head_travel(self):
        track = TRACK_SECTORS
        taf = time_amplification([track * 1000] * 10, [track * 10] * 10)
        assert 1.0 < taf < 10.0
