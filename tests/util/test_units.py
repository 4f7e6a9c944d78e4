"""Unit-conversion tests."""

import pytest

from repro.util import units


class TestBytesToSectors:
    def test_exact_sector(self):
        assert units.bytes_to_sectors(512) == 1

    def test_rounds_up(self):
        assert units.bytes_to_sectors(513) == 2

    def test_zero(self):
        assert units.bytes_to_sectors(0) == 0

    def test_just_below_sector(self):
        assert units.bytes_to_sectors(511) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            units.bytes_to_sectors(-1)


class TestRoundTrips:

    def test_kib_round_trip(self):
        assert units.sectors_to_kib(units.kib_to_sectors(64)) == 64.0

    def test_mib_round_trip(self):
        assert units.mib_to_sectors(7) == 7 * units.SECTORS_PER_MIB

    def test_gib_round_trip(self):
        assert units.sectors_to_gib(units.gib_to_sectors(2)) == 2.0

    def test_fractional_kib_rounds_up(self):
        assert units.kib_to_sectors(0.25) == 1

    def test_constants_consistent(self):
        assert units.SECTORS_PER_KIB == 2
        assert units.SECTORS_PER_MIB == 2048
        assert units.SECTORS_PER_GIB == 2048 * 1024
