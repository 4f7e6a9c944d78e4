"""Seek-time model tests (paper §III cost structure)."""

import pytest

from repro.disk.seek_time import (MAX_SEEK_MS, REVOLUTION_MS, TRACK_SECTORS, TRACKS, SeekTimeModel,
                                  transfer_ms)


@pytest.fixture
def model():
    return SeekTimeModel()


class TestSeekTimeShape:
    def test_zero_distance_free(self, model):
        assert model.seek_ms(0) == 0.0

    def test_short_forward_costs_transfer_time(self, model):
        sectors = 100  # well inside one track
        assert abs(model.seek_ms(sectors) - transfer_ms(sectors)) < 1e-12

    def test_short_backward_costs_near_full_rotation(self, model):
        cost = model.seek_ms(-100)
        assert cost > 0.8 * REVOLUTION_MS

    def test_long_seek_includes_half_rotation(self, model):
        distance = TRACK_SECTORS * 1000
        assert model.seek_ms(distance) >= REVOLUTION_MS / 2

    def test_long_seek_monotone_in_distance(self, model):
        d1 = TRACK_SECTORS * 10
        d2 = TRACK_SECTORS * 100000
        assert model.seek_ms(d2) > model.seek_ms(d1)

    def test_full_stroke_near_max(self, model):
        cost = model.seek_ms(TRACKS * TRACK_SECTORS)
        expected = MAX_SEEK_MS + REVOLUTION_MS / 2
        assert abs(cost - expected) < 0.5

    def test_backward_long_same_as_forward_long(self, model):
        distance = TRACK_SECTORS * 500
        assert model.seek_ms(distance) == model.seek_ms(-distance)

    def test_missed_rotation_worse_than_short_skip(self, model):
        # The asymmetry motivating look-behind prefetching.
        assert model.seek_ms(-8) > 10 * model.seek_ms(8)


class TestAggregates:
    def test_total_ms(self, model):
        distances = [0, 100, -100]
        assert abs(
            model.total_ms(distances)
            - sum(model.seek_ms(d) for d in distances)
        ) < 1e-12


class TestGeometry:
    def test_revolution_7200rpm(self):
        assert abs(REVOLUTION_MS - 8.333) < 0.01

    def test_transfer_ms(self):
        # 2048 sectors = 1 MiB at 180 MiB/s
        assert abs(transfer_ms(2048) - 1000.0 / 180.0) < 1e-9

    def test_tracks_spanned(self, model):
        # Up to one whole track spanned is a short seek, paid in transfer
        # time; two is a long one, paid in head travel plus half a turn.
        assert model.seek_ms(2 * TRACK_SECTORS - 1) == transfer_ms(2 * TRACK_SECTORS - 1)
        assert model.seek_ms(2 * TRACK_SECTORS) > REVOLUTION_MS / 2
