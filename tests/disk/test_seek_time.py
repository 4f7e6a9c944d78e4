"""Seek-time model tests (paper §III cost structure)."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.seek_time import SeekTimeModel


@pytest.fixture
def model():
    return SeekTimeModel(geometry=DiskGeometry())


class TestSeekTimeShape:
    def test_zero_distance_free(self, model):
        assert model.seek_ms(0) == 0.0

    def test_short_forward_costs_transfer_time(self, model):
        sectors = 100  # well inside one track
        assert abs(model.seek_ms(sectors) - model.geometry.transfer_ms(sectors)) < 1e-12

    def test_short_backward_costs_near_full_rotation(self, model):
        cost = model.seek_ms(-100)
        assert cost > 0.8 * model.geometry.revolution_ms

    def test_long_seek_includes_half_rotation(self, model):
        distance = model.geometry.track_sectors * 1000
        assert model.seek_ms(distance) >= model.geometry.revolution_ms / 2

    def test_long_seek_monotone_in_distance(self, model):
        d1 = model.geometry.track_sectors * 10
        d2 = model.geometry.track_sectors * 100000
        assert model.seek_ms(d2) > model.seek_ms(d1)

    def test_full_stroke_near_max(self, model):
        cost = model.seek_ms(model.geometry.capacity_sectors)
        expected = model.max_seek_ms + model.geometry.revolution_ms / 2
        assert abs(cost - expected) < 0.5

    def test_backward_long_same_as_forward_long(self, model):
        distance = model.geometry.track_sectors * 500
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


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SeekTimeModel(min_seek_ms=0)
        with pytest.raises(ValueError):
            SeekTimeModel(min_seek_ms=5, max_seek_ms=2)
        with pytest.raises(ValueError):
            SeekTimeModel(short_seek_tracks=-1)


class TestGeometry:
    def test_revolution_7200rpm(self):
        assert abs(DiskGeometry(rpm=7200).revolution_ms - 8.333) < 0.01

    def test_transfer_ms(self):
        geo = DiskGeometry(transfer_mib_s=100.0)
        # 2048 sectors = 1 MiB at 100 MiB/s = 10 ms
        assert abs(geo.transfer_ms(2048) - 10.0) < 1e-9

    def test_tracks_spanned(self):
        geo = DiskGeometry(track_sectors=100)
        assert geo.tracks_spanned(250) == 2
        assert geo.tracks_spanned(-250) == 2

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            DiskGeometry(capacity_sectors=0)
        with pytest.raises(ValueError):
            DiskGeometry(rpm=0)
        with pytest.raises(ValueError):
            DiskGeometry(transfer_mib_s=0)
        with pytest.raises(ValueError):
            DiskGeometry(track_sectors=-5)
