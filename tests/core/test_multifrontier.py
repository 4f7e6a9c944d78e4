"""Multi-frontier (WOLF-style) translator tests."""

import pytest

from repro.core import multifrontier
from repro.core.multifrontier import MultiFrontierTranslator, RecencyClassifier
from repro.trace.record import IORequest
from repro.util.units import mib_to_sectors

BASE = mib_to_sectors(8)
REGION = mib_to_sectors(16)


def make_translator(**kwargs):
    return MultiFrontierTranslator(frontier_base=BASE, region_sectors=REGION, **kwargs)


class TestRecencyClassifier:
    def test_first_touch_is_cold(self):
        c = RecencyClassifier()
        assert not c.classify_and_note(0, 8)

    def test_retouch_is_hot(self):
        c = RecencyClassifier()
        c.classify_and_note(0, 8)
        assert c.classify_and_note(0, 8)

    def test_window_eviction(self, monkeypatch):
        monkeypatch.setattr(multifrontier, "RECENCY_WINDOW", 2)
        c = RecencyClassifier()
        c.classify_and_note(0, 8)
        c.classify_and_note(8, 8)
        c.classify_and_note(16, 8)   # evicts block of lba 0
        assert not c.classify_and_note(0, 8)


class TestFrontierPlacement:
    def test_cold_writes_go_to_cold_region(self):
        t = make_translator()
        outcome = t.submit(IORequest.write(0, 8))
        assert BASE <= outcome.accesses[0].pba < BASE + REGION
        assert t.cold_writes == 1

    def test_hot_rewrite_goes_to_hot_region(self):
        t = make_translator()
        t.submit(IORequest.write(0, 8))
        outcome = t.submit(IORequest.write(0, 8))
        assert outcome.accesses[0].pba >= BASE + REGION
        assert t.hot_writes == 1

    def test_switch_counted_and_seeks(self):
        t = make_translator()
        t.submit(IORequest.write(0, 8))    # cold
        t.submit(IORequest.write(0, 8))    # hot: switch, seek
        t.submit(IORequest.write(0, 8))    # hot again: no switch, no seek
        assert t.frontier_switches == 1

    def test_switching_costs_write_seeks(self):
        # Alternating cold/hot writes seek on every switch; a single
        # frontier would have had none.
        t = make_translator()
        t.submit(IORequest.write(0, 8))
        seeks = 0
        for i in range(1, 20):
            lba = 0 if i % 2 == 0 else i * 80
            seeks += t.submit(IORequest.write(lba, 8)).write_seeks
        assert seeks >= t.frontier_switches > 5

    def test_reads_resolve_across_regions(self):
        t = make_translator()
        t.submit(IORequest.write(0, 8))      # cold
        t.submit(IORequest.write(8, 8))      # cold
        t.submit(IORequest.write(8, 8))      # hot rewrite
        outcome = t.submit(IORequest.read(0, 16))
        assert outcome.fragments == 2
        pbas = sorted(a.pba for a in outcome.accesses)
        assert pbas[0] < BASE + REGION <= pbas[1]

    def test_region_exhaustion_raises(self):
        t = MultiFrontierTranslator(frontier_base=BASE, region_sectors=16)
        t.submit(IORequest.write(0, 16))
        with pytest.raises(ValueError, match="cold log region exhausted"):
            t.submit(IORequest.write(100, 8))

    def test_read_crossing_base_rejected(self):
        t = make_translator()
        with pytest.raises(ValueError, match="crosses the log base"):
            t.submit(IORequest.read(BASE - 4, 8))

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiFrontierTranslator(frontier_base=-1, region_sectors=8)
        with pytest.raises(ValueError):
            MultiFrontierTranslator(frontier_base=0, region_sectors=0)

    def test_description(self):
        assert make_translator().description == "LS+multifrontier"
