"""Extent-map tier selection.

Two interchangeable :class:`~repro.extentmap.base.AddressMap` tiers back
the log-structured translator:

* ``"extent"`` — :class:`~repro.extentmap.extent_map.ExtentMap`, the
  pure-Python sorted-extent structure.  It is the *differential oracle*:
  every other tier is proven bit-identical to it, and the reference
  simulator always runs on it so gated speedup ratios stay meaningful.
* ``"array"`` — :class:`~repro.extentmap.array_map.ArrayExtentMap`, the
  compiled two-level structure engineered for the write path.  The
  batch replay kernels (:mod:`repro.core.batch`) and the streaming
  service select it by default.

The environment variable :data:`ENV_TIER` (``REPRO_EXTENT_MAP``) forces
one tier everywhere — both the reference and the batch paths — which is
how the differential tests assert exhibit JSON is byte-identical across
tiers.  The registry only guards against unknown names.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.extentmap.base import AddressMap

#: Environment variable forcing one tier for every translator built via
#: :func:`make_address_map` (values: ``extent`` or ``array``).
ENV_TIER = "REPRO_EXTENT_MAP"

#: Tier the vectorized batch kernels and the streaming service request.
DEFAULT_KERNEL_TIER = "array"

#: Tier of the reference simulator path (and the historical default).
DEFAULT_REFERENCE_TIER = "extent"

MAP_TIERS = ("extent", "array")


def resolve_map_tier(default: str = DEFAULT_REFERENCE_TIER) -> str:
    """The tier to use: the :data:`ENV_TIER` override, else ``default``."""
    tier = os.environ.get(ENV_TIER) or default
    if tier not in MAP_TIERS:
        raise ValueError(
            f"unknown extent-map tier {tier!r} (from "
            f"{ENV_TIER if os.environ.get(ENV_TIER) else 'default'}); "
            f"expected one of {MAP_TIERS}"
        )
    return tier


def make_address_map(tier: Optional[str] = None) -> AddressMap:
    """Construct a fresh address map of the requested (or resolved) tier."""
    resolved = resolve_map_tier() if tier is None else tier
    if resolved == "extent":
        from repro.extentmap.extent_map import ExtentMap

        return ExtentMap()
    if resolved == "array":
        from repro.extentmap.array_map import ArrayExtentMap

        return ArrayExtentMap()
    raise ValueError(f"unknown extent-map tier {resolved!r}; expected one of {MAP_TIERS}")
