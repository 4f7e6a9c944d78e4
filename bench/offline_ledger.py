"""Ledger runs of the offline workloads: where a pass or a cold exhibit run
spends its time, layer by layer, measured from outside by calling each
layer's public functions on the window's own inputs inside spans."""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

import verify
from harness import Run, timed
from offline import (
    CONFIG_KEYS,
    run_cli,
    exhibits_command,
    replay_pass,
)

from repro.core.batch import IncrementalBatchReplay, batch_replay, batch_replay_translator
from repro.core.cleaning import ZonedCleaningTranslator
from repro.core.config import (
    LS,
    LS_ALL,
    LS_CACHE,
    LS_DEFRAG,
    LS_PREFETCH,
    NOLS,
    TechniqueConfig,
    build_translator,
)
from repro.core.selective_cache import SelectiveCacheConfig
from repro.core.stream import record_fragment_stream, stream_cache_sweep, stream_replay
from repro.disk.seek_time import SeekTimeModel
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, make_address_map, resolve_map_tier
from repro.trace.store import TraceStore, file_meta, synthetic_meta
from repro.workloads import (
    TABLE1,
    ReadMix,
    WorkloadSpec,
    WriteMix,
    generate_workload,
    synthesize_workload,
)

#: The 16-point selective-cache capacity grid (MiB) of the cache ablation.
CACHE_SWEEP_MIB = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
CLEANING_OPS = 60_000
CHUNK_OPS = 1_000


def _store_bytes(store: TraceStore) -> int:
    return sum(p.stat().st_size for p in store.root.rglob("*") if p.is_file())


def measure_exhibits(
    run: Run, scale: float, tmp: Path, stores: Path,
    cold: Dict[str, dict], cold_s: float, cold_start: float, fallbacks: int,
) -> None:
    """Spans of the cold run from its own manifest, the ``--jobs 2`` rerun,
    and the two layers the cold run pays for that the warm one does not."""
    ledger = run.ledger
    window = ledger.add("exhibits.cli", cold_start, cold_start + cold_s, None)
    parent = len(ledger.spans) - 1
    # run.json gives durations, not start times: lay the exhibits end to end.
    cursor = cold_start
    named = ("table1", "fig2", "fig11", "ablation_combined", "ablation_defrag", "taxonomy")
    other = 0.0
    for name, entry in cold.items():
        duration = float(entry.get("duration_s", 0.0))
        ledger.add(f"experiments.{name}", cursor, cursor + duration, parent)
        cursor += duration
        if name in named:
            run.put(f"experiments.runner.exhibit_s.{name}", duration, n=1)
        else:
            other += duration
    run.put("experiments.runner.exhibit_s.other", other, n=len(cold) - len(named))
    in_exhibits = cursor - cold_start
    # Interpreter boot, imports, manifest writes: the CLI's own time.
    run.put("experiments.runner.overhead_s", cold_s - in_exhibits, n=1)
    run.put("ledger_coverage_frac", in_exhibits / (window["end"] - window["start"]))
    run.put("experiments.runner.fallbacks", fallbacks)

    jobs2_s, jobs2_rc, _ = run_cli(
        exhibits_command(run, scale, tmp / "jobs2", stores, "--fast", "--jobs", "2")
    )
    run.put("experiments.runner.jobs2_wall_s", jobs2_s, n=1)
    run.check(
        "--jobs 2 exhibits are byte-identical to serial",
        jobs2_rc == 0 and verify.files_digest(tmp / "jobs2") == run.digests["exhibits"],
    )

    store = TraceStore(tmp / "ledger-store")
    synth_s = put_s = load_s = 0.0
    ops = 0
    for name in TABLE1:
        with ledger.span("workloads.synthesize"):
            trace, seconds = timed(synthesize_workload, name, seed=run.seed, scale=scale)
        synth_s += seconds
        ops += len(trace)
        meta = synthetic_meta(name, run.seed, scale)
        with ledger.span("trace.store"):
            put_s += timed(store.store, trace, meta)[1]
            load_s += timed(lambda: store.load(meta).as_arrays())[1]
    run.put("workloads.synth_ops_per_s", ops / synth_s, n=len(TABLE1))
    run.put("trace.store_put_s", put_s, n=len(TABLE1))
    run.put("trace.store_load_s", load_s, n=len(TABLE1))
    run.put("trace.store_bytes", _store_bytes(store))


def measure_replay(run: Run, csv: Path, tmp: Path, pass_s: float, window_stats) -> None:
    ledger = run.ledger
    span = ledger.span

    # -- the window's pass again, a span around each call into a layer -- #
    with span("replay.pass") as whole:
        parsed, stats, _, _ = replay_pass(csv, tmp / "ledger-result.json", span=span)
    wall = whole["end"] - whole["start"]
    n = len(parsed)
    run.check("the ledger pass produced the window's results", stats == window_stats)
    run.put("trace_overhead_frac", (wall - pass_s) / pass_s, n=1)
    own = ledger.self_seconds()
    run.put("ledger_coverage_frac", (wall - own["replay.pass"]) / wall)
    run.put("trace.parse_ops_per_s", n / ledger.seconds("trace.parse"), n=1)
    run.put("trace.parse_mib_per_s",
            csv.stat().st_size / 2**20 / ledger.seconds("trace.parse"), n=1)
    run.put("experiments.sweep.grid_s", ledger.seconds("experiments.sweep"), n=1)
    run.put("core.multifrontier.ops_per_s", n / ledger.seconds("core.multifrontier"), n=1)
    run.put("analysis.nols_s", ledger.seconds("analysis.nols"), n=1)
    run.put("analysis.fragment_cdf_s", ledger.seconds("analysis.fragment_cdf"), n=1)

    # -- what the sweep is made of: the calls SweepEngine dispatches to -- #
    with span("experiments.sweep.constituents"):
        with span("core.batch.nols"):
            batch_replay(parsed, NOLS)
        with span("core.stream.record"):
            stream = record_fragment_stream(parsed)
        for config in (LS, LS_PREFETCH, LS_CACHE):
            with span(f"core.stream.replay.{CONFIG_KEYS[config.name]}"):
                stream_replay(stream, config)
        with span("core.batch.ls_defrag"):
            batch_replay(parsed, LS_DEFRAG)
    run.put("core.batch.nols_ops_per_s", n / ledger.seconds("core.batch.nols"), n=1)
    run.put("core.stream.record_ops_per_s", n / ledger.seconds("core.stream.record"), n=1)
    for config in (LS, LS_PREFETCH, LS_CACHE):
        key = CONFIG_KEYS[config.name]
        run.put(f"core.stream.replay_ops_per_s.{key}",
                n / ledger.seconds(f"core.stream.replay.{key}"), n=1)
    run.put("core.batch.ls_defrag_ops_per_s", n / ledger.seconds("core.batch.ls_defrag"), n=1)

    # -- kernels on the same trace that the pass does not call directly - #
    with span("core.batch.ls"):
        batch_replay(parsed, LS)
    run.put("core.batch.ls_ops_per_s", n / ledger.seconds("core.batch.ls"), n=1)
    with span("core.batch.ls_all"):
        everything = batch_replay(parsed, LS_ALL)
    run.put("core.batch.ls_all_ops_per_s", n / ledger.seconds("core.batch.ls_all"), n=1)
    distances, counts = np.unique(everything.read_distances, return_counts=True)
    model = SeekTimeModel()
    seek_ms = sum(model.seek_ms(d) * c for d, c in zip(distances.tolist(), counts.tolist()))
    run.put("sim.read_seek_ms_per_op.ls_all", seek_ms / max(everything.stats.reads, 1))

    tier = resolve_map_tier(DEFAULT_KERNEL_TIER)
    engine = IncrementalBatchReplay(build_translator(parsed, LS, tier), track_fragments=True)
    is_read, lba, length = parsed.as_arrays()
    with span("core.batch.chunk1k"):
        for start in range(0, n, CHUNK_OPS):
            rows = slice(start, start + CHUNK_OPS)
            engine.feed_arrays(is_read[rows], lba[rows], length[rows])
    run.put("core.batch.chunk1k_ops_per_s", n / ledger.seconds("core.batch.chunk1k"), n=1)

    grid = [
        TechniqueConfig(name=f"cache{mib}", cache=SelectiveCacheConfig(capacity_mib=float(mib)))
        for mib in CACHE_SWEEP_MIB
    ]
    with span("core.stream.cache_sweep"):
        stream_cache_sweep(stream, grid)
    run.put("core.stream.cache_sweep_s", ledger.seconds("core.stream.cache_sweep"), n=1)

    store = TraceStore(tmp / "ledger-store")
    meta = file_meta(csv, "msr")
    with span("trace.store"):
        run.put("trace.store_put_s", timed(store.store, parsed, meta)[1], n=1)
        run.put("trace.store_load_s", timed(lambda: store.load(meta).as_arrays())[1], n=1)
    run.put("trace.store_bytes", _store_bytes(store))

    _cleaning(run, tier)


def _cleaning(run: Run, tier: str) -> None:
    """Zoned cleaning on a hot-overwrite workload against a finite log
    (32 x 8 MiB zones over a 64 MiB live set, so the log wraps and cleans)."""
    spec = WorkloadSpec(
        name="cleaning-bench",
        family="cloudphysics",
        total_ops=run.sized(CLEANING_OPS),
        read_fraction=0.3,
        mean_read_kib=16.0,
        mean_write_kib=16.0,
        working_set_mib=64,
        hot_mib=32,
        write_mix=WriteMix(random=0.5, hot_overwrite=0.5),
        read_mix=ReadMix(scan=0.5, random=0.5),
        phases=4,
    )
    trace = generate_workload(spec, seed=run.seed)
    translator = ZonedCleaningTranslator(
        frontier_base=trace.max_end,
        zone_mib=8.0,
        n_zones=32,
        reserve_zones=2,
        address_map=make_address_map(tier),
    )
    with run.ledger.span("core.cleaning"):
        _, seconds = timed(batch_replay_translator, trace, translator)
    run.put("core.cleaning.ops_per_s", len(trace) / seconds, n=1)
    run.put("core.cleaning.episodes", translator.cleaning_stats.cleanings)
    run.put("core.cleaning.write_amp", translator.cleaning_stats.write_amplification)
