"""Workload generator tests."""

import pytest

from repro.trace.stats import compute_stats
from repro.workloads.generator import WorkloadGenerator, generate_workload
from repro.workloads.spec import ReadMix, WorkloadSpec, WriteMix


def make_spec(**overrides):
    defaults = dict(
        name="gen-test",
        family="msr",
        total_ops=2000,
        read_fraction=0.5,
        mean_read_kib=16.0,
        mean_write_kib=16.0,
        working_set_mib=64,
        hot_mib=8,
        write_mix=WriteMix(random=0.5, hot_overwrite=0.3, sequential=0.1, misordered=0.1),
        read_mix=ReadMix(scan=0.3, random=0.3, hot=0.2, replay=0.2),
        phases=4,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        spec = make_spec()
        a = generate_workload(spec, seed=1)
        b = generate_workload(spec, seed=1)
        assert list(a.requests) == list(b.requests)

    def test_different_seed_different_trace(self):
        spec = make_spec()
        a = generate_workload(spec, seed=1)
        b = generate_workload(spec, seed=2)
        assert list(a.requests) != list(b.requests)


class TestShape:
    def test_op_counts_match_spec(self):
        trace = generate_workload(make_spec(), seed=3)
        assert len(trace) == 2000
        stats = compute_stats(trace)
        assert stats.read_count == 1000
        assert stats.write_count == 1000

    def test_scale(self):
        trace = generate_workload(make_spec(), seed=3, scale=0.5)
        assert len(trace) == 1000

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            generate_workload(make_spec(), scale=0)

    def test_timestamps_monotone(self):
        trace = generate_workload(make_spec(), seed=3)
        timestamps = [r.timestamp for r in trace]
        assert timestamps == sorted(timestamps)

    def test_addresses_within_working_set(self):
        spec = make_spec()
        trace = generate_workload(spec, seed=3)
        limit = spec.working_set_mib * 2048 + 4096 * 2  # region + read cap slack
        assert all(r.end <= limit for r in trace)

    def test_trace_named_after_spec(self):
        assert generate_workload(make_spec(), seed=3).name == "gen-test"

    def test_mean_write_size_tracks_spec(self):
        spec = make_spec(total_ops=6000, mean_write_kib=32.0)
        stats = compute_stats(generate_workload(spec, seed=3))
        assert 20.0 < stats.mean_write_size_kib < 45.0


class TestPhaseStructure:
    def test_front_loading(self):
        even = make_spec(write_phase_decay=1.0)
        front = make_spec(write_phase_decay=0.3)
        def first_quarter_writes(spec):
            trace = generate_workload(spec, seed=3)
            quarter = len(trace) // 4
            return sum(1 for r in trace.requests[:quarter] if r.is_write)
        assert first_quarter_writes(front) > first_quarter_writes(even)

    def test_single_phase(self):
        trace = generate_workload(make_spec(phases=1), seed=3)
        assert len(trace) == 2000

    def test_interleaving_spreads_patterns(self):
        spec = make_spec(
            interleave_writes=True,
            write_mix=WriteMix(random=0.5, hot_overwrite=0.5),
        )
        trace = generate_workload(spec, seed=3)
        assert len(trace) == 2000


class TestGeneratorClass:
    def test_reusable(self):
        gen = WorkloadGenerator(make_spec())
        a = gen.generate(seed=1)
        b = gen.generate(seed=1)
        assert list(a.requests) == list(b.requests)

    def test_all_reads_spec(self):
        spec = make_spec(read_fraction=1.0)
        trace = generate_workload(spec, seed=3)
        # One synthetic write is kept so re-read patterns have a target.
        assert compute_stats(trace).write_count <= 1
