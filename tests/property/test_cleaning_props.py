"""Property tests: cleaning must never lose or corrupt the mapping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cleaning import ZonedCleaningTranslator
from repro.trace.record import IORequest

SPACE = 512          # logical sectors
ZONE_MIB = 0.0625    # 128-sector zones
N_ZONES = 6          # 768-sector log for a 512-sector logical space

write_sequences = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SPACE - 1),
        st.integers(min_value=1, max_value=32),
    ),
    min_size=1,
    max_size=120,
)


def build(writes):
    translator = ZonedCleaningTranslator(
        frontier_base=SPACE,
        zone_mib=ZONE_MIB,
        n_zones=N_ZONES,
        reserve_zones=2,
    )
    written = set()
    for lba, length in writes:
        length = min(length, SPACE - lba)
        if length <= 0:
            continue
        translator.submit(IORequest.write(lba, length))
        written.update(range(lba, lba + length))
    return translator, written


class TestCleaningPreservesMapping:
    @given(writes=write_sequences)
    @settings(max_examples=120, deadline=None)
    def test_written_sectors_stay_mapped(self, writes):
        translator, written = build(writes)
        segments = translator.address_map().lookup(0, SPACE)
        mapped = set()
        for segment in segments:
            if not segment.is_hole:
                mapped.update(range(segment.lba, segment.lba + segment.length))
        assert mapped == written

    @given(writes=write_sequences)
    @settings(max_examples=120, deadline=None)
    def test_live_accounting_matches_map(self, writes):
        translator, written = build(writes)
        assert translator.live_sectors() == len(written)

    @given(writes=write_sequences)
    @settings(max_examples=120, deadline=None)
    def test_mapped_pbas_inside_open_log_zones(self, writes):
        # A mapped extent may legitimately span a zone boundary (writes
        # flow contiguously from one zone into the next and the map merges
        # them), so the invariant is checked zone-piece by zone-piece:
        # every mapped sector must lie below its zone's write pointer.
        translator, _ = build(writes)
        zones = translator._zones
        for segment in translator.address_map().lookup(0, SPACE):
            if segment.is_hole:
                continue
            pba = segment.pba - SPACE
            end = pba + segment.length
            assert 0 <= pba and end <= translator.log_capacity_sectors
            cursor = pba
            while cursor < end:
                zone = zones.zone_for(cursor)
                piece_end = min(end, zone.end)
                assert piece_end <= zone.write_pointer
                cursor = piece_end

    @given(writes=write_sequences)
    @settings(max_examples=120, deadline=None)
    def test_waf_at_least_one(self, writes):
        translator, _ = build(writes)
        assert translator.cleaning_stats.write_amplification >= 1.0

    @given(writes=write_sequences)
    @settings(max_examples=60, deadline=None)
    def test_reads_after_churn_resolve_single_copy(self, writes):
        translator, written = build(writes)
        for sector in sorted(written)[:20]:
            outcome = translator.submit(IORequest.read(sector, 1))
            assert outcome.fragments == 1
            assert not outcome.accesses[0].hole
