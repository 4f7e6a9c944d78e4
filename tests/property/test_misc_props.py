"""Property tests on heads, seek-time monotonicity, analysis helpers and
workload-generator determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fragmentation import fragment_concentration
from repro.disk.head import DiskHead
from repro.disk.seek_time import SHORT_SEEK_TRACKS, TRACK_SECTORS, SeekTimeModel
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.util.stats import empirical_cdf
from repro.workloads.generator import generate_workload
from repro.workloads.spec import WorkloadSpec


class TestDiskHeadProperties:
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=64),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_seek_iff_discontiguous(self, accesses):
        head = DiskHead()
        position = None
        for pba, length in accesses:
            event = head.access(pba, length)
            expected_seek = position is not None and pba != position
            assert event.seek == expected_seek
            if expected_seek:
                assert event.distance == pba - position
            else:
                assert event.distance == 0
            position = pba + length
            assert head.position == position


class TestSeekTimeProperties:
    @given(distance=st.integers(min_value=1, max_value=10**10))
    @settings(max_examples=200, deadline=None)
    def test_non_negative_and_symmetric_long(self, distance):
        model = SeekTimeModel()
        assert model.seek_ms(distance) >= 0.0
        if distance // TRACK_SECTORS > SHORT_SEEK_TRACKS:
            assert model.seek_ms(distance) == model.seek_ms(-distance)

    @given(
        d1=st.integers(min_value=1, max_value=10**9),
        d2=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=200, deadline=None)
    def test_long_regime_monotone(self, d1, d2):
        # Monotonicity only holds among long seeks: a short forward skip is
        # paid in rotational pass-over time and can legitimately cost more
        # than a minimal head seek (true of real drives too).
        model = SeekTimeModel()
        lo, hi = sorted((d1, d2))
        if lo // TRACK_SECTORS > SHORT_SEEK_TRACKS:
            assert model.seek_ms(lo) <= model.seek_ms(hi) + 1e-9


class TestAnalysisProperties:
    @given(values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_empirical_cdf_is_valid(self, values):
        cdf = empirical_cdf(values)
        fractions = [f for _, f in cdf]
        xs = [x for x, _ in cdf]
        assert xs == sorted(set(values))
        assert fractions == sorted(fractions)
        assert abs(fractions[-1] - 1.0) < 1e-12

    @given(frags=st.lists(st.integers(min_value=2, max_value=100), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_concentration_curve_valid(self, frags):
        curve = fragment_concentration(frags)
        assert curve[-1] == (1.0, 1.0)
        # Concave: every prefix holds at least its proportional share.
        for frac_reads, frac_frags in curve:
            assert frac_frags >= frac_reads - 1e-9


class TestGeneratorDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_trace_pure_function_of_seed(self, seed):
        spec = WorkloadSpec(
            name="prop",
            family="msr",
            total_ops=200,
            read_fraction=0.5,
            mean_read_kib=8.0,
            mean_write_kib=8.0,
            working_set_mib=16,
            hot_mib=4,
            phases=2,
        )
        a = generate_workload(spec, seed=seed)
        b = generate_workload(spec, seed=seed)
        assert list(a.requests) == list(b.requests)
        for request in a:
            assert isinstance(request, IORequest)
            assert request.op in (OpType.READ, OpType.WRITE)
