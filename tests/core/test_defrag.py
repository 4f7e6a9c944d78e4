"""Opportunistic defragmentation tests (Algorithm 1 + §IV-A throttles)."""

import pytest

from repro.core.defrag import DefragConfig, OpportunisticDefrag
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest


class TestDefragConfig:
    def test_defaults_are_algorithm_1(self):
        config = DefragConfig()
        assert config.min_fragments == 2
        assert config.min_accesses == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            DefragConfig(min_fragments=1)
        with pytest.raises(ValueError):
            DefragConfig(min_accesses=0)


class TestPolicyDecisions:
    def test_unfragmented_never_defragments(self):
        policy = OpportunisticDefrag()
        assert not policy.should_defragment(0, 10, fragments=1)

    def test_default_triggers_on_first_fragmented_read(self):
        policy = OpportunisticDefrag()
        assert policy.should_defragment(0, 10, fragments=2)

    def test_min_fragments_threshold(self):
        policy = OpportunisticDefrag(DefragConfig(min_fragments=4))
        assert not policy.should_defragment(0, 10, fragments=3)
        assert policy.should_defragment(0, 10, fragments=4)

    def test_min_accesses_counts_per_range(self):
        policy = OpportunisticDefrag(DefragConfig(min_accesses=3))
        assert not policy.should_defragment(0, 10, fragments=2)
        assert not policy.should_defragment(0, 10, fragments=2)
        assert policy.should_defragment(0, 10, fragments=2)

    def test_min_accesses_separate_ranges(self):
        policy = OpportunisticDefrag(DefragConfig(min_accesses=2))
        assert not policy.should_defragment(0, 10, fragments=2)
        assert not policy.should_defragment(100, 10, fragments=2)
        assert policy.should_defragment(0, 10, fragments=2)

    def test_counter_resets_after_trigger(self):
        policy = OpportunisticDefrag(DefragConfig(min_accesses=2))
        policy.should_defragment(0, 10, fragments=2)
        assert policy.should_defragment(0, 10, fragments=2)
        # counter dropped: needs two more accesses again
        assert not policy.should_defragment(0, 10, fragments=2)

    def test_note_defragmented_clears_state(self):
        policy = OpportunisticDefrag(DefragConfig(min_accesses=5))
        policy.should_defragment(0, 10, fragments=2)
        assert len(policy.state_dict()["access_counts"]) == 1
        policy.note_defragmented(0, 10)
        assert len(policy.state_dict()["access_counts"]) == 0


class TestDefragInTranslator:
    def make_fragmented(self, defrag=None):
        t = LogStructuredTranslator(frontier_base=1000, defrag=defrag)
        t.submit(IORequest.write(4, 2))
        t.submit(IORequest.write(8, 2))
        return t

    def test_fragmented_read_triggers_rewrite(self):
        t = self.make_fragmented(OpportunisticDefrag())
        before = t.frontier
        outcome = t.submit(IORequest.read(0, 12))
        assert outcome.defrag_rewritten_sectors == 12
        assert t.frontier == before + 12

    def test_reread_is_contiguous_after_defrag(self):
        t = self.make_fragmented(OpportunisticDefrag())
        t.submit(IORequest.read(0, 12))
        outcome = t.submit(IORequest.read(0, 12))
        assert outcome.fragments == 1
        assert outcome.read_seeks <= 1

    def test_defrag_seek_charged_as_write_direction(self):
        t = self.make_fragmented(OpportunisticDefrag())
        t.submit(IORequest.read(500, 8))   # move head away from frontier
        outcome = t.submit(IORequest.read(0, 12))
        assert outcome.defrag_write_seeks == 1
        rewrite = outcome.accesses[-1]
        assert rewrite.defrag and rewrite.seek

    def test_no_defrag_without_policy(self):
        t = self.make_fragmented(defrag=None)
        before = t.frontier
        outcome = t.submit(IORequest.read(0, 12))
        assert outcome.defrag_rewritten_sectors == 0
        assert t.frontier == before

    def test_adjacent_read_pays_relocation_seek(self):
        # Fig. 6 t_F: defrag moves data; a read overlapping the moved range
        # and its old neighbourhood now fragments.
        t = self.make_fragmented(OpportunisticDefrag())
        t.submit(IORequest.read(4, 8))       # defrags LBAs 4..12
        outcome = t.submit(IORequest.read(0, 8))  # LBAs 0..8: identity + copy
        assert outcome.fragments == 2
