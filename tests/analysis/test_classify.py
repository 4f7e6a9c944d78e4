"""Workload taxonomy tests."""

import pytest

from repro.analysis.classify import LogSensitivity, WorkloadCharacter, characterize, classify_saf
from repro.core.metrics import seek_amplification
from repro.core.outcomes import SimStats
from repro.trace.record import IORequest
from repro.trace.trace import Trace


class TestClassifySaf:
    def test_bands(self):
        assert classify_saf(0.5) is LogSensitivity.LOG_FRIENDLY
        assert classify_saf(1.0) is LogSensitivity.LOG_AGNOSTIC
        assert classify_saf(2.0) is LogSensitivity.LOG_SENSITIVE

    def test_band_edges(self):
        assert classify_saf(0.9) is LogSensitivity.LOG_FRIENDLY
        assert classify_saf(1.1) is LogSensitivity.LOG_SENSITIVE

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_saf(-0.1)

    def test_classify_stats(self):
        translated = SimStats(read_seeks=30)
        baseline = SimStats(read_seeks=10)
        saf = seek_amplification(translated, baseline).total
        assert classify_saf(saf) is LogSensitivity.LOG_SENSITIVE


class TestCharacterize:
    def test_write_intensity(self):
        trace = Trace(
            [IORequest.write(0, 8), IORequest.write(8, 8), IORequest.read(0, 8)]
        )
        assert characterize(trace).write_intensity == 2.0

    def test_no_reads_infinite_intensity(self):
        trace = Trace([IORequest.write(0, 8)])
        assert characterize(trace).write_intensity == float("inf")

    def test_sequential_read_share(self):
        trace = Trace(
            [
                IORequest.read(0, 8),
                IORequest.read(8, 8),     # sequential
                IORequest.read(100, 8),   # not
            ]
        )
        assert abs(characterize(trace).sequential_read_share - 1 / 3) < 1e-9

    def test_overwrite_ratio(self):
        trace = Trace(
            [IORequest.write(0, 8), IORequest.write(0, 8), IORequest.write(8, 8)]
        )
        assert abs(characterize(trace).overwrite_ratio - 8 / 24) < 1e-9

    def test_mixed_read_share(self):
        trace = Trace(
            [
                IORequest.write(8, 8),
                IORequest.read(0, 16),   # straddles hole + written
                IORequest.read(8, 8),    # fully written
                IORequest.read(100, 8),  # fully unwritten
            ]
        )
        assert abs(characterize(trace).mixed_read_share - 1 / 3) < 1e-9

    def test_empty_trace(self):
        character = characterize(Trace([]))
        assert character.read_fraction == 0.0
        assert character.overwrite_ratio == 0.0


class TestPrediction:
    def test_write_dominant_predicts_friendly(self):
        character = WorkloadCharacter(
            write_intensity=5.0,
            sequential_read_share=0.9,
            overwrite_ratio=0.9,
            mixed_read_share=0.9,
            read_fraction=0.1,
        )
        assert character.predicted_sensitivity() is LogSensitivity.LOG_FRIENDLY

    def test_scan_over_overwrites_predicts_sensitive(self):
        character = WorkloadCharacter(
            write_intensity=0.2,
            sequential_read_share=0.7,
            overwrite_ratio=0.5,
            mixed_read_share=0.1,
            read_fraction=0.8,
        )
        assert character.predicted_sensitivity() is LogSensitivity.LOG_SENSITIVE

    def test_mixed_reads_predict_sensitive(self):
        character = WorkloadCharacter(
            write_intensity=0.5,
            sequential_read_share=0.0,
            overwrite_ratio=0.05,
            mixed_read_share=0.5,
            read_fraction=0.7,
        )
        assert character.predicted_sensitivity() is LogSensitivity.LOG_SENSITIVE

    def test_random_everything_predicts_friendly(self):
        character = WorkloadCharacter(
            write_intensity=1.0,
            sequential_read_share=0.05,
            overwrite_ratio=0.1,
            mixed_read_share=0.1,
            read_fraction=0.5,
        )
        assert character.predicted_sensitivity() is LogSensitivity.LOG_FRIENDLY

    def test_prediction_matches_measured_on_archetypes(self):
        """The feature heuristic must agree with measured SAF classes on
        the clear-cut archetypes (the borderline ones are exempt)."""
        from repro.core.config import LS, NOLS, build_translator
        from repro.core.metrics import seek_amplification
        from repro.core.simulator import replay
        from repro.workloads import synthesize_workload

        for name, expected in (
            ("w91", LogSensitivity.LOG_SENSITIVE),
            ("w36", LogSensitivity.LOG_FRIENDLY),
            ("rsrch_0", LogSensitivity.LOG_FRIENDLY),
        ):
            trace = synthesize_workload(name, seed=42, scale=0.3)
            predicted = characterize(trace).predicted_sensitivity()
            assert predicted is expected, name
