"""Access-pattern properties of generated columns: what the synthesis
digests pin but do not state."""

import numpy as np
import pytest

from repro.util.units import BLOCK_SECTORS
from repro.workloads import ReadMix, WorkloadSpec, WriteMix, generate_workload, synthesize_workload


def columns(**fields):
    spec = dict(name="patterns", family="msr", total_ops=4000, read_fraction=0.5,
                mean_read_kib=16.0, mean_write_kib=16.0, working_set_mib=256, hot_mib=64,
                phases=1)
    trace = generate_workload(WorkloadSpec(**{**spec, **fields}), seed=7)
    c = trace.columns
    return c.is_read, c.lba, c.length


@pytest.fixture(scope="module")
def archetype():
    traces = [synthesize_workload(name, seed=7, scale=0.05).columns
              for name in ("w84", "hm_1", "src2_2", "w91")]
    return [np.concatenate([getattr(c, name) for c in traces])
            for name in ("is_read", "lba", "length")]


class TestSampleSize:
    def test_block_aligned(self, archetype):
        _, lba, length = archetype
        assert not np.any(lba % BLOCK_SECTORS) and not np.any(length % BLOCK_SECTORS)

    def test_bounds(self, archetype):
        is_read, _, length = archetype
        assert length.min() >= BLOCK_SECTORS
        assert length[~is_read].max() <= 2048 and length[is_read].max() <= 8192  # 1 / 4 MiB

    def test_bulk_tail(self):
        is_read, _, length = columns(read_mix=ReadMix(random=1.0))
        assert length[is_read].max() > 2048  # bulk reads exceed the 1 MiB write cap


class TestMisorderedPattern:
    def test_groups_locally_reversed(self):
        _, lba, _ = columns(read_fraction=0.0, write_mix=WriteMix(random=0.0, misordered=1.0))
        chunks = lba[:400].reshape(-1, 4)
        assert np.all(np.diff(chunks, axis=1) < 0)  # each chunk descends
        assert np.all(np.diff(chunks[:, 0]) > 0)  # the chunks ascend

    def test_union_is_sequential(self):
        _, lba, length = columns(read_fraction=0.0, write_mix=WriteMix(random=0.0, misordered=1.0))
        order = np.argsort(lba[:400])
        assert np.array_equal(lba[:400][order][1:], (lba[:400] + length[:400])[order][:-1])


class TestReplayReadPattern:
    def test_replays_in_write_order(self):
        is_read, lba, length = columns(total_ops=200, read_fraction=0.32,
                                       read_mix=ReadMix(random=0.0, replay=1.0))
        writes = np.stack([lba[~is_read], length[~is_read]], axis=1)[-32:]
        reads = np.stack([lba[is_read], length[is_read]], axis=1)
        assert np.array_equal(reads, np.concatenate([writes, writes]))
