"""SMR zone model tests (paper §II / Fig. 1 semantics)."""

import pytest

from repro.disk.zones import SequentialZoneError, ZonedAddressSpace


@pytest.fixture
def zas():
    return ZonedAddressSpace(zone_sectors=100, n_zones=4)


class TestLayout:
    def test_capacity(self, zas):
        assert zas.capacity_sectors == 400

    def test_zone_for(self, zas):
        assert zas.zone_for(0).zone_id == 0
        assert zas.zone_for(99).zone_id == 0
        assert zas.zone_for(100).zone_id == 1
        assert zas.zone_for(399).zone_id == 3

    def test_zone_for_out_of_range(self, zas):
        with pytest.raises(ValueError):
            zas.zone_for(400)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ZonedAddressSpace(zone_sectors=0)
        with pytest.raises(ValueError):
            ZonedAddressSpace(n_zones=0)


class TestSequentialWriteConstraint:
    def test_write_at_pointer_ok(self, zas):
        zas.write(0, 10)
        assert zas.zones[0].write_pointer == 10

    def test_write_not_at_pointer_rejected(self, zas):
        with pytest.raises(SequentialZoneError, match="write pointer"):
            zas.write(5, 10)

    def test_rewrite_requires_reset(self, zas):
        zas.write(0, 100)
        assert zas.zones[0].is_full
        with pytest.raises(SequentialZoneError):
            zas.write(0, 1)
        zas.reset(0)
        assert zas.zones[0].is_empty
        zas.write(0, 1)  # now ok

    def test_write_crossing_zone_end_rejected(self, zas):
        with pytest.raises(SequentialZoneError, match="crosses zone"):
            zas.write(0, 101)

    def test_invalid_length(self, zas):
        with pytest.raises(ValueError):
            zas.write(0, 0)


class TestZoneProperties:
    def test_counters(self, zas):
        zone = zas.zones[0]
        assert zone.remaining_sectors == 100
        zas.write(0, 40)
        assert zone.write_pointer - zone.start == 40
        assert zone.remaining_sectors == 60
        assert not zone.is_full and not zone.is_empty
