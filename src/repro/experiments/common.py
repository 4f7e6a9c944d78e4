"""Shared plumbing for the experiment modules: JSON dumps and series
thinning."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

from repro.util.io import atomic_write_json


def save_json(exhibit: str, data: dict, out_dir: Optional[str]) -> Optional[Path]:
    """Dump exhibit data as ``<out_dir>/<exhibit>.json``; None disables.

    The write is atomic (tmp file + rename), so a run killed mid-dump
    never leaves a truncated JSON behind — at worst a stale ``.tmp`` file
    sits next to the previous complete version.
    """
    if out_dir is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return atomic_write_json(out / f"{exhibit}.json", data)


def downsample(series: Iterable[float]) -> list:
    """Thin a long series to 200 points for JSON output, keeping the
    first and last."""
    values = list(series)
    if len(values) <= 200:
        return values
    stride = len(values) / 200
    picked = [values[int(i * stride)] for i in range(200)]
    picked[-1] = values[-1]
    return picked
