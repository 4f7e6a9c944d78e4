"""Experiment harness: regenerate every table and figure of the paper.

One module per exhibit; each exposes ``run(seed, scale, out_dir) -> dict``
returning the exhibit's data (also dumped as JSON when ``out_dir`` is set)
and printing a paper-style text rendering.

Command line::

    python -m repro.experiments all
    python -m repro.experiments fig11 --seed 42 --scale 1.0 --out results/
"""

from repro.experiments.registry import EXHIBITS, resolve_names, run_exhibit
from repro.experiments.runner import (
    ExhibitOutcome,
    ExhibitTimeoutError,
    RunManifest,
    exhibit_fingerprint,
    run_exhibits,
)
from repro.experiments.sweep import SweepEngine, reset_sweep_engines, sweep_engine

__all__ = [
    "EXHIBITS",
    "resolve_names",
    "run_exhibit",
    "ExhibitOutcome",
    "ExhibitTimeoutError",
    "RunManifest",
    "exhibit_fingerprint",
    "run_exhibits",
    "SweepEngine",
    "reset_sweep_engines",
    "sweep_engine",
]
