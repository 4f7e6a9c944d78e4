"""Technique-bundle / factory tests."""

import json

import pytest

from repro.core.config import (ALL_CONFIGS, LS, LS_ALL, LS_CACHE, LS_DEFRAG, LS_PREFETCH, NOLS,
                               PAPER_CONFIGS, MultiFrontierConfig, TechniqueConfig,
                               build_translator, config_from_dict, config_to_dict)
from repro.core.multifrontier import MultiFrontierTranslator
from repro.core.simulator import replay
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator
from repro.trace.record import IORequest
from repro.trace.trace import Trace

from tests.differential.oracle import normalized


class TestPaperConfigs:
    def test_fig11_lineup(self):
        assert [c.name for c in PAPER_CONFIGS] == [
            "LS",
            "LS+defrag",
            "LS+prefetch",
            "LS+cache",
        ]

    def test_all_configs_includes_baseline(self):
        assert ALL_CONFIGS[0] is NOLS

    def test_cache_config_is_64mb(self):
        assert LS_CACHE.cache.capacity_mib == 64.0

    def test_single_technique_per_paper_config(self):
        assert LS.defrag is None and LS.prefetch is None and LS.cache is None
        assert LS_DEFRAG.defrag is not None and LS_DEFRAG.cache is None
        assert LS_PREFETCH.prefetch is not None and LS_PREFETCH.defrag is None
        assert LS_CACHE.cache is not None and LS_CACHE.prefetch is None


class TestBuildTranslator:
    def setup_method(self):
        self.trace = Trace([IORequest.write(100, 8)], name="t")

    def test_nols_builds_in_place(self):
        assert isinstance(build_translator(self.trace, NOLS), InPlaceTranslator)

    def test_ls_frontier_above_trace(self):
        translator = build_translator(self.trace, LS)
        assert isinstance(translator, LogStructuredTranslator)
        assert translator.frontier_base == self.trace.max_end

    def test_techniques_wired(self):
        assert build_translator(self.trace, LS_DEFRAG).defrag is not None
        assert build_translator(self.trace, LS_PREFETCH).prefetcher is not None
        assert build_translator(self.trace, LS_CACHE).cache is not None

    def test_fresh_state_per_build(self):
        a = build_translator(self.trace, LS)
        b = build_translator(self.trace, LS)
        a.submit(IORequest.write(0, 8))
        assert b.frontier == b.frontier_base


class TestLsAllConfig:
    def test_exported_and_composed(self):
        from repro.core.config import LS_ALL

        assert LS_ALL.defrag is not None
        assert LS_ALL.prefetch is not None
        assert LS_ALL.cache is not None
        assert LS_ALL.defrag.min_fragments == 4
        assert LS_ALL.defrag.min_accesses == 2

    def test_builds_fully_loaded_translator(self):
        from repro.core.config import LS_ALL

        trace = Trace([IORequest.write(0, 8)], name="t")
        translator = build_translator(trace, LS_ALL)
        assert translator.description == "LS+defrag+prefetch+cache"

    def test_in_all_configs(self):
        from repro.core.config import LS_ALL

        assert ALL_CONFIGS[-1] is LS_ALL


FRONTIERS = TechniqueConfig(name="LS+frontiers", multi_frontier=MultiFrontierConfig())
#: The multi-frontier part as open requests and checkpoint headers carried
#: it before its four settings became constants.
OLD_FRONTIERS = {"frontiers": 2, "region_mib": 2048.0, "window": 4096, "block_sectors": 8}


class TestSerializedConfigs:
    @pytest.mark.parametrize("config", (NOLS, *PAPER_CONFIGS, LS_ALL, FRONTIERS),
                             ids=lambda c: c.name)
    def test_every_servable_config_round_trips(self, config):
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config

    def test_frontiers_part_is_empty_but_on(self):
        assert config_to_dict(FRONTIERS)["multi_frontier"] == {}
        assert config_from_dict(config_to_dict(FRONTIERS)).multi_frontier is not None

    def test_earlier_dicts_read_at_the_fixed_values(self):
        old = {**config_to_dict(FRONTIERS), "multi_frontier": OLD_FRONTIERS, "fast": True}
        assert config_from_dict(old) == FRONTIERS
        old_cache = {**config_to_dict(LS_CACHE), "cache": {"capacity_mib": 64.0,
                                                           "block_sectors": 8}}
        assert config_from_dict(old_cache) == LS_CACHE

    @pytest.mark.parametrize("key, field, value", [
        ("multi_frontier", "window", 64), ("multi_frontier", "frontiers", 3),
        ("cache", "block_sectors", 16),
    ])
    def test_other_values_of_a_fixed_field_are_refused(self, key, field, value):
        base = FRONTIERS if key == "multi_frontier" else LS_CACHE
        old = config_to_dict(base)
        old[key] = {**(OLD_FRONTIERS if key == "multi_frontier" else old[key]), field: value}
        with pytest.raises(ValueError, match=f"{key}.{field}"):
            config_from_dict(old)

    @pytest.mark.parametrize("field, value", [("min_accesses", 1.5), ("min_accesses", True),
                                              ("min_fragments", 3.0)])
    def test_defrag_thresholds_must_be_ints(self, field, value):
        request = config_to_dict(LS_ALL) | {"defrag": {"min_fragments": 4, field: value}}
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            config_from_dict(request)

    def test_earlier_multi_frontier_state_loads(self):
        def translator():
            return MultiFrontierTranslator(frontier_base=64, region_sectors=1 << 16)

        source = translator()
        replay(Trace([IORequest.write(8 * (i % 5), 8) for i in range(20)], name="t"), source)
        state = source.state_dict()
        old = {**state, "n_frontiers": 2,
               "classifier": {**state["classifier"], "window": 4096, "block_sectors": 8}}
        restored = translator()
        restored.load_state(old)
        assert normalized(restored.state_dict()) == normalized(state)
        for bad, name in (({**old, "n_frontiers": 3}, "n_frontiers"),
                          ({**old, "classifier": {**old["classifier"], "window": 64}}, "window")):
            with pytest.raises(ValueError, match=name):
                translator().load_state(bad)
