"""The drive figures the seek-time model is built on."""

from repro.disk.seek_time import TRACK_SECTORS, TRACKS, transfer_ms
from repro.util.units import gib_to_sectors


class TestDerivedQuantities:
    def test_default_is_8tb_class(self):
        assert TRACKS * TRACK_SECTORS == gib_to_sectors(8 * 1024)

    def test_transfer_scales_linearly(self):
        assert abs(transfer_ms(2000) - 2 * transfer_ms(1000)) < 1e-9

    def test_transfer_zero(self):
        assert transfer_ms(0) == 0.0
