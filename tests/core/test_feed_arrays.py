"""``IncrementalBatchReplay.feed_arrays`` does not trust its caller's dtypes.

A wire payload decoded with ``np.frombuffer`` hands the flags over as
``uint8`` and a quick script hands over plain lists; every translator
family must replay them exactly like a bool/int64 batch, and columns of
unequal length must be rejected before anything is applied.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import IncrementalBatchReplay
from repro.core.cleaning import ZonedCleaningTranslator
from repro.core.multifrontier import MultiFrontierTranslator
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator

IS_READ = [1, 0, 1, 1]
LBA = [0, 100, 8, 300]
LENGTH = [8, 8, 8, 8]

TRANSLATORS = {
    "NoLS": InPlaceTranslator,
    "LS": lambda: LogStructuredTranslator(frontier_base=1024),
    "multi-frontier": lambda: MultiFrontierTranslator(
        frontier_base=1024, region_sectors=4096
    ),
    "zoned-cleaning": lambda: ZonedCleaningTranslator(
        frontier_base=1024, zone_mib=0.0625, n_zones=8
    ),
}

COLUMNS = {
    "bool": lambda: (
        np.array(IS_READ, dtype=bool), np.array(LBA), np.array(LENGTH)
    ),
    "uint8": lambda: (
        np.array(IS_READ, dtype=np.uint8), np.array(LBA), np.array(LENGTH)
    ),
    "list": lambda: (IS_READ, LBA, LENGTH),
}


@pytest.mark.parametrize("family", sorted(TRANSLATORS))
@pytest.mark.parametrize("spelling", sorted(COLUMNS))
def test_column_spelling_is_unobservable(family, spelling):
    expected = IncrementalBatchReplay(TRANSLATORS[family]())
    expected.feed_arrays(*COLUMNS["bool"]())
    engine = IncrementalBatchReplay(TRANSLATORS[family]())
    engine.feed_arrays(*COLUMNS[spelling]())
    assert engine.stats() == expected.stats()
    assert engine.stats().sectors_read == 24
    assert engine.stats().sectors_written == 8


@pytest.mark.parametrize("family", sorted(TRANSLATORS))
def test_unequal_columns_are_rejected(family):
    engine = IncrementalBatchReplay(TRANSLATORS[family]())
    with pytest.raises(ValueError, match="differ in length"):
        engine.feed_arrays(IS_READ, LBA, LENGTH[:-1])
    assert engine.ops_applied == 0
