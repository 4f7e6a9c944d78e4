"""Exhibit JSON is byte-identical across every execution configuration.

The ``--jobs`` pool and the extent-map tier are *unobservable* in the
results.  These tests run real (workload-reduced) exhibits in process and
over the pool and assert every run writes the same bytes.  The
workload-set monkeypatches live in the parent, which is where exhibits run
and their ``NEEDS`` are read; pool tasks only compute the rows they are
sent.
"""

from __future__ import annotations

import shutil

import pytest

from repro.experiments import fig4, fig11, registry
from repro.experiments.runner import run_exhibits
from tests.integration.test_parallel_runner import _exhibit_bytes

QUIET = {"echo": lambda s: None}
SEED, SCALE = 42, 0.05


@pytest.fixture(autouse=True)
def _small_sets(monkeypatch):
    """Small workload sets, rendered and filled."""
    for module, attr, names in ((fig4, "FIG4_WORKLOADS", ("usr_0", "src2_2")),
                                (fig11, "MSR_WORKLOADS", ("hm_1",)),
                                (fig11, "CLOUDPHYSICS_WORKLOADS", ("w91",))):
        monkeypatch.setattr(module, attr, names)
    for name, module, names in (("fig4", fig4, ("usr_0", "src2_2")),
                                ("fig11", fig11, ("hm_1", "w91"))):
        monkeypatch.setitem(registry.NEEDS, name, {w: module.NEEDS[w] for w in names})


def _run(names, out_dir, jobs, trace_store=None):
    outcomes = run_exhibits(
        names, seed=SEED, scale=SCALE, out_dir=str(out_dir), jobs=jobs,
        trace_store=trace_store, **QUIET
    )
    bad = [(o.name, o.status, o.error) for o in outcomes if not o.ok]
    assert not bad, bad
    return _exhibit_bytes(out_dir)


def test_full_matrix_is_byte_identical(tmp_path):
    names = ["fig4", "fig11"]
    serial = _run(names, tmp_path / "f1", jobs=1)
    assert set(serial) == {"fig4.json", "fig11.json"}
    assert _run(names, tmp_path / "f4", jobs=4) == serial, "jobs=4 diverged from jobs=1"


def test_map_tier_is_byte_identical_across_jobs(tmp_path, monkeypatch):
    """Forcing either extent-map tier via ``REPRO_EXTENT_MAP`` must leave
    exhibit JSON untouched, serially and under the pool (spawned workers
    inherit the env, so every worker replays on the forced tier)."""
    from repro.extentmap.tiers import ENV_TIER, MAP_TIERS

    names = ["fig4", "fig11"]
    reference = _run(names, tmp_path / "ref", jobs=1)
    assert set(reference) == {"fig4.json", "fig11.json"}
    for tier in MAP_TIERS:
        monkeypatch.setenv(ENV_TIER, tier)
        for jobs in (1, 4):
            dumps = _run(names, tmp_path / f"{tier}{jobs}", jobs=jobs)
            assert dumps == reference, f"tier={tier} jobs={jobs} diverged"


@pytest.mark.parametrize("jobs", [1, 2])
def test_none_means_no_store_whatever_the_process_had_set(tmp_path, jobs):
    """``trace_store=None`` disables the store for the run — in process as
    under the pool, where each task gets what the run was given — whatever
    store an earlier run in the process used."""
    traces = tmp_path / "traces"
    _run(["fig4"], tmp_path / "first", jobs=jobs, trace_store=str(traces))
    assert len(list(traces.glob("*"))) == 2
    shutil.rmtree(traces)
    _run(["fig4"], tmp_path / "out", jobs=jobs)
    assert not traces.exists()
