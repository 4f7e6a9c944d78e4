"""Exhibit JSON is byte-identical across every execution configuration.

The ``--jobs`` pool and the persistent trace/stream stores are
*unobservable* in the results.  These tests run real (workload-reduced)
exhibits through {jobs=1, jobs=4} x {cold, warm stream store} and assert
every cell writes the same bytes, and that a warm store means each
workload's fragment stream is never re-recorded.  The workload-set
monkeypatches live in the parent, which is where exhibits and their
``needs`` run; pool tasks only compute the rows they are sent.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import common, fig4, fig5, fig11
from repro.experiments.runner import run_exhibits
from repro.experiments.sweep import reset_sweep_engines, sweep_engine

QUIET = {"echo": lambda s: None}
SEED, SCALE = 42, 0.05


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    """Small workload sets, and no shared replay state leaking either way."""
    monkeypatch.setattr(fig4, "FIG4_WORKLOADS", ("usr_0", "src2_2"))
    monkeypatch.setattr(fig5, "FIG5_WORKLOADS", ("usr_0", "hm_1"))
    monkeypatch.setattr(fig11, "MSR_WORKLOADS", ("hm_1",))
    monkeypatch.setattr(fig11, "CLOUDPHYSICS_WORKLOADS", ("w91",))
    common.set_trace_store(None)
    common.set_stream_store(None)
    common._trace_cache.clear()
    reset_sweep_engines()
    yield
    common.set_trace_store(None)
    common.set_stream_store(None)
    common._trace_cache.clear()
    reset_sweep_engines()


def _dumps(out_dir) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(out_dir).glob("*.json"))
        if path.name != "run.json"
    }


def _run(names, out_dir, jobs, stream_store=None):
    reset_sweep_engines()
    outcomes = run_exhibits(
        names,
        seed=SEED,
        scale=SCALE,
        out_dir=str(out_dir),
        jobs=jobs,
        stream_store=stream_store,
        **QUIET,
    )
    bad = [(o.name, o.status, o.error) for o in outcomes if not o.ok]
    assert not bad, bad
    return _dumps(out_dir)


def test_full_matrix_is_byte_identical(tmp_path):
    names = ["fig4", "fig11"]
    store = str(tmp_path / "stream-store")
    serial = _run(names, tmp_path / "f1", jobs=1)
    cells = {
        "jobs4_cold": _run(names, tmp_path / "f4c", jobs=4, stream_store=store),
        "jobs4_warm": _run(names, tmp_path / "f4w", jobs=4, stream_store=store),
        "jobs1_warm": _run(names, tmp_path / "f1w", jobs=1, stream_store=store),
    }
    assert set(serial) == {"fig4.json", "fig11.json"}
    for cell, dumps in cells.items():
        assert dumps == serial, f"{cell} diverged from the serial run"


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
            common._trace_cache.clear()
            dumps = _run(names, tmp_path / f"{tier}{jobs}", jobs=jobs)
            assert dumps == reference, f"tier={tier} jobs={jobs} diverged"


def test_warm_store_records_each_stream_at_most_once(tmp_path, monkeypatch):
    """With a primed store, no process ever re-records a fragment stream —
    pool workers included (their counts reach the parent's engine) — and
    workloads shared across exhibits (fig4 and fig5 both read usr_0) are
    one task each."""
    from repro.core.stream_store import StreamStore

    names = ["fig4", "fig5"]
    root = tmp_path / "stream-store"
    _run(names, tmp_path / "cold", jobs=4, stream_store=str(root))
    workloads = set(fig4.FIG4_WORKLOADS) | set(fig5.FIG5_WORKLOADS)
    assert sweep_engine(SEED, SCALE).streams_recorded == len(workloads)
    assert len(list(root.iterdir())) == len(workloads)

    def boom(*args, **kwargs):
        raise AssertionError("stream re-recorded despite a warm store")

    monkeypatch.setattr("repro.experiments.sweep.record_fragment_stream", boom)
    warm = _run(names, tmp_path / "warm4", jobs=4, stream_store=str(root))
    assert warm == _dumps(tmp_path / "cold")
    assert sweep_engine(SEED, SCALE).streams_recorded == 0

    # Serially (in-process) the store counters are observable: everything
    # is a hit, nothing is a miss.
    store = StreamStore(root)
    common._trace_cache.clear()
    _run(names, tmp_path / "warm1", jobs=1, stream_store=store)
    assert store.misses == 0
    assert store.hits >= len(workloads)


@pytest.mark.parametrize("jobs", [1, 2])
def test_none_means_no_store_whatever_the_process_had_set(tmp_path, jobs):
    """``trace_store=None`` / ``stream_store=None`` disable the stores for
    the run — serially as under the pool, where each task sets what the
    run was given — and the caller's process-wide stores come back after."""
    traces, streams = tmp_path / "traces", tmp_path / "streams"
    common.set_trace_store(str(traces))
    common.set_stream_store(str(streams))
    before = common.trace_store(), common.stream_store()
    _run(["fig4"], tmp_path / "out", jobs=jobs)
    assert not list(traces.glob("*")) and not list(streams.glob("*"))
    assert (common.trace_store(), common.stream_store()) == before
