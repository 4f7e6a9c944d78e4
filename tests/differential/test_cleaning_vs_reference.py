"""Differential oracle: the zoned-cleaning batch kernel vs. the reference.

:class:`~repro.core.cleaning.ZonedCleaningTranslator` is the finite-log
model: appends land in fixed-size zones, invalidations decrement per-zone
live counts, and hitting the clean-trigger watermark launches a cleaning
episode (victim selection + relocation + zone reset).  The batch kernel
splits chunks at episode boundaries and runs the episode through the
translator's own reference code, so these tests demand bit-exactness on

* overwrite-heavy generated workloads and synthetic traces that force
  hundreds of cleaning episodes,
* Hypothesis request soups over a tight LBA space against a small log
  (cleaning-trigger churn),
* chunk-size independence (episode splits must not be observable), and
* error equality for the log-full / boundary-crossing failure modes.

Every comparison includes the translator's complete ``state_dict()``:
zone write pointers, the per-zone ledger, live counts, allocation order
and the cleaning counters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import batch_replay_translator
from repro.core.cleaning import ZonedCleaningTranslator
from repro.core.simulator import replay
from repro.disk.zones import SequentialZoneError
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, make_address_map, resolve_map_tier
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.workloads import ReadMix, WorkloadSpec, WriteMix, generate_workload

from tests.differential.oracle import assert_translator_matches_reference, normalized


def _overwrite_trace(seed: int, total_ops: int = 3000) -> Trace:
    """A small-LBA-space overwrite workload that forces cleaning."""
    spec = WorkloadSpec(
        name="cleaning-differential",
        family="cloudphysics",
        total_ops=total_ops,
        read_fraction=0.3,
        mean_read_kib=16.0,
        mean_write_kib=16.0,
        working_set_mib=2,
        hot_mib=1,
        write_mix=WriteMix(random=0.5, hot_overwrite=0.5),
        read_mix=ReadMix(scan=0.5, random=0.5),
        phases=4,
    )
    return generate_workload(spec, seed=seed)


def _factory(trace, zone_mib=0.0625, n_zones=12, tier=None):
    def make():
        return ZonedCleaningTranslator(
            frontier_base=trace.max_end,
            zone_mib=zone_mib,
            n_zones=n_zones,
            reserve_zones=2,
            address_map=make_address_map(tier),
        )

    return make


@pytest.mark.parametrize("seed", (42, 7))
def test_overwrite_workload_matches(seed):
    trace = _overwrite_trace(seed)
    make = _factory(trace, zone_mib=0.25, n_zones=24)
    assert_translator_matches_reference(trace, make)
    # The comparison is only meaningful if cleaning actually ran.
    translator = make()
    replay(trace, translator)
    assert translator.cleaning_stats.cleanings > 0


def test_array_map_tier_matches_too():
    trace = _overwrite_trace(seed=42, total_ops=1500)
    assert_translator_matches_reference(
        trace,
        _factory(trace, zone_mib=0.25, n_zones=24),
        make_batch_translator=_factory(
            trace, zone_mib=0.25, n_zones=24, tier=resolve_map_tier(DEFAULT_KERNEL_TIER)
        ),
    )


# --- synthetic edge cases ------------------------------------------------

SYNTHETIC = {
    "empty": Trace([]),
    "single-write": Trace([IORequest.write(0, 8)]),
    "fill-and-overwrite": Trace(
        [IORequest.write((i * 64) % 256, 48) for i in range(64)]
    ),
    "hot-spot-churn": Trace(
        # One hot 64-sector range rewritten until the log wraps many times.
        [IORequest.write((i * 16) % 64, 16) for i in range(160)]
    ),
    "reads-between-cleanings": Trace(
        [
            req
            for i in range(80)
            for req in (
                IORequest.write((i * 32) % 192, 32),
                IORequest.read((i * 24) % 192, 16),
            )
        ]
    ),
    "multi-zone-extent": Trace(
        # Appends longer than a zone never happen (the log splits them),
        # but a mapped extent can span zones via consecutive appends; the
        # invalidation must split its delta per zone.
        [IORequest.write(0, 120), IORequest.write(0, 120), IORequest.read(0, 120)]
    ),
    "prefix-fills-a-zone": Trace(
        # A batched write run that ends exactly at a zone's end leaves the
        # frontier on a full zone, which the next run must skip.
        [*(IORequest.write(i * 8, 8) for i in range(16)), IORequest.read(0, 8),
         *(IORequest.write(i * 8, 8) for i in range(16))]
    ),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
def test_synthetic_edge_cases_match(case):
    # The reference on its own map tier, the kernel on the one it runs on.
    trace = SYNTHETIC[case]
    assert_translator_matches_reference(
        trace, _factory(trace),
        make_batch_translator=_factory(trace, tier=resolve_map_tier(DEFAULT_KERNEL_TIER)))


@pytest.mark.parametrize("chunk_ops", [1, 3, 7, 64])
def test_chunk_size_is_unobservable(chunk_ops):
    trace = SYNTHETIC["hot-spot-churn"]
    make = _factory(trace)
    baseline = batch_replay_translator(trace, make())
    rechunked = batch_replay_translator(trace, make(), chunk_ops)
    assert rechunked.stats == baseline.stats
    assert list(rechunked.distances) == list(baseline.distances)
    assert normalized(rechunked.translator.state_dict()) == normalized(
        baseline.translator.state_dict()
    )


def test_log_full_of_live_data_raises_identically():
    # Live data exceeding log capacity is unreclaimable; both paths must
    # fail with the reference message.
    trace = Trace([IORequest.write(i * 16, 16) for i in range(32)], name="full")

    def make():
        return ZonedCleaningTranslator(
            frontier_base=512, zone_mib=0.0078125, n_zones=8, reserve_zones=2
        )

    with pytest.raises(SequentialZoneError) as ref_exc:
        replay(trace, make())
    with pytest.raises(SequentialZoneError) as batch_exc:
        batch_replay_translator(trace, make())
    assert str(batch_exc.value) == str(ref_exc.value)


@pytest.mark.parametrize("requests, frontier_base", [
    ([IORequest.read(120, 16)], 128),
    # Over half the 1024-sector log: counted as host-written, then refused.
    ([IORequest.write(0, 8), IORequest.write(0, 513)], 1024),
], ids=["read-crossing", "oversized-write"])
def test_boundary_crossing_raises_identically(requests, frontier_base):
    trace = Trace(requests, name="crossing")
    reference, batch = (ZonedCleaningTranslator(frontier_base=frontier_base, zone_mib=0.0625,
                                                 n_zones=8) for _ in range(2))
    with pytest.raises(ValueError) as ref_exc:
        replay(trace, reference)
    with pytest.raises(ValueError) as batch_exc:
        batch_replay_translator(trace, batch)
    assert str(batch_exc.value) == str(ref_exc.value)
    assert (batch.cleaning_stats.host_written_sectors
            == reference.cleaning_stats.host_written_sectors)


# --- hypothesis ----------------------------------------------------------

_LBA_SPACE = 256
_MAX_LENGTH = 24

_requests = st.lists(
    st.builds(
        lambda is_read, lba, length: (
            IORequest.read(lba, length) if is_read else IORequest.write(lba, length)
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=_LBA_SPACE - _MAX_LENGTH),
        st.integers(min_value=1, max_value=_MAX_LENGTH),
    ),
    max_size=120,
)


@given(requests=_requests)
@settings(max_examples=60, deadline=None)
def test_request_soup_matches(requests):
    trace = Trace(requests, name="soup")
    # 24 zones x 64 sectors: live data (<= 256 sectors) always fits, but a
    # write-heavy soup overruns the writable budget and triggers cleaning.
    assert_translator_matches_reference(trace, lambda: ZonedCleaningTranslator(
        frontier_base=_LBA_SPACE, zone_mib=64 / 2048, n_zones=24, reserve_zones=2))
