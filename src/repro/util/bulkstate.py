"""The ``state_dict`` bulk-state contract: flat integer state is an array.

Every ``state_dict()`` in the package emits scalars as plain Python
values and bulk state as ``int64``/``bool`` ndarrays — the split
:mod:`repro.service.checkpoint` persists as a small JSON skeleton plus
one ``.npy`` per array, so a checkpoint costs what its bytes cost rather
than one Python object (and one JSON token) per element.  Restores read
through ``np.asarray(x, dtype=np.int64)``, which accepts those arrays
*and* the nested lists older checkpoints carry in their JSON skeleton.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def int_rows(rows, width: int) -> np.ndarray:
    """``rows`` (array or nested lists, possibly empty) as ``(n, width)`` int64."""
    return np.asarray(rows, dtype=np.int64).reshape(-1, width)


def hist_to_pairs(hist: Dict[int, int]) -> np.ndarray:
    """``{value: count}`` as an ``(n, 2)`` int64 array sorted by value."""
    n = len(hist)
    pairs = np.empty((n, 2), dtype=np.int64)
    pairs[:, 0] = np.fromiter(hist.keys(), dtype=np.int64, count=n)
    pairs[:, 1] = np.fromiter(hist.values(), dtype=np.int64, count=n)
    return pairs[np.argsort(pairs[:, 0])]


def pairs_to_hist(pairs) -> Dict[int, int]:
    """Inverse of :func:`hist_to_pairs`; also reads ``[[value, count], ...]``."""
    pairs = int_rows(pairs, 2)
    return dict(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))
