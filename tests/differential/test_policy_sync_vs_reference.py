"""The engine's fragment-policy state reaches its translator at every sync point.

:class:`repro.core.batch.IncrementalBatchReplay` hands the techniques'
state to the compiled fragment-policy kernel on its first read run that
needs it and writes it back in ``state_dict()``, ``result()`` and the
``translator`` property.  Fed in 1 000-op chunks with a ``state_dict()``
→ ``from_state`` restore halfway, it must end where a one-shot
:func:`~repro.core.batch.batch_replay` and the reference simulator end:
stats, seek distances, and the policies' own ``state_dict()``\\ s.
"""

import numpy as np
import pytest

from repro.core.batch import IncrementalBatchReplay, batch_replay
from repro.core.config import LS_ALL, LS_CACHE, LS_DEFRAG, LS_PREFETCH, TechniqueConfig, build_translator
from repro.core.defrag import DefragConfig
from repro.core.recorders import SeekLogRecorder
from repro.core.simulator import Simulator
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, resolve_map_tier
from repro.workloads import synthesize_workload

from .oracle import normalized

CHUNK_OPS = 1000


def policy_states(translator):
    return {
        name: normalized(part.state_dict())
        for name, part in (("defrag", translator.defrag), ("cache", translator.cache),
                           ("prefetcher", translator.prefetcher))
        if part is not None
    }


@pytest.fixture(scope="module")
def trace():
    return synthesize_workload("hm_1", seed=7, scale=0.35)


THROTTLED = TechniqueConfig(name="LS+defrag3:3", defrag=DefragConfig(min_fragments=3, min_accesses=3))


@pytest.mark.parametrize("config", [LS_PREFETCH, LS_CACHE, LS_ALL, LS_DEFRAG, THROTTLED],
                         ids=lambda c: c.name)
def test_chunked_resumed_engine_equals_oneshot_and_reference(trace, config):
    tier = resolve_map_tier(DEFAULT_KERNEL_TIER)
    is_read, lba, length = trace.as_arrays()
    assert len(lba) > 6 * CHUNK_OPS

    engine = IncrementalBatchReplay(build_translator(trace, config, tier), trace.name)
    half = len(lba) // 2 // CHUNK_OPS * CHUNK_OPS
    for start in range(0, len(lba), CHUNK_OPS):
        if start == half:
            state = engine.state_dict()
            engine = IncrementalBatchReplay.from_state(
                build_translator(trace, config, tier), state
            )
        stop = start + CHUNK_OPS
        engine.feed_arrays(is_read[start:stop], lba[start:stop], length[start:stop])
    chunked = engine.result()

    oneshot = batch_replay(trace, config)
    reference_translator = build_translator(trace, config)
    recorder = SeekLogRecorder()
    reference = Simulator(recorders=[recorder]).run(trace, reference_translator)

    assert chunked.stats.fragmented_reads > 0
    assert config.defrag is None or chunked.stats.defrag_rewrites > 0
    assert chunked.stats == oneshot.stats == reference.stats
    assert np.array_equal(chunked.distances, oneshot.distances)
    assert chunked.distances.tolist() == recorder.distances
    assert np.array_equal(chunked.distance_is_read, oneshot.distance_is_read)
    want = policy_states(reference_translator)
    assert policy_states(chunked.translator) == policy_states(oneshot.translator) == want
    assert normalized(engine.state_dict()["translator"]) == normalized(
        reference_translator.state_dict()
    )
