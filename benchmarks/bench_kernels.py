"""Macro-benchmark of the replay kernels; writes ``BENCH_core.json``.

A plain script producing a small, diffable JSON artifact that
``check_regression.py`` gates against the checked-in baseline::

    python benchmarks/bench_kernels.py --out benchmarks/BENCH_core.json
    python benchmarks/check_regression.py benchmarks/BENCH_core.json

It measures the reference per-request simulator against the vectorized
batch kernels (:mod:`repro.core.batch`) on million-op *generated Table I
workloads* — the zipf locality of the paper's traces is what keeps the
extent map compact, so a uniform-random synthetic trace would measure
extent-map insertion, not replay.  The stateful log-structured replay of
the read-heavy trace is the headline (gated) number.  The ``jobs_scaling``
benchmark times the paper's exhibit set end to end, cold vs. over warm
memory-mapped trace/stream stores; its warm jobs=4 cell is gated because
the win comes from store reuse, which holds even on a 1-core container.
The two-exhibit ``runner`` timing remains informational context only: a
speedup there needs >1 core, which CI containers may not have.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis.distances import distance_cdf
from repro.analysis.fast import (
    distance_cdf_fast,
    nols_seek_distances,
    nols_windowed_long_seeks,
)
from repro.analysis.temporal import WindowedSeekRecorder
from repro.core.batch import batch_replay, batch_replay_translator
from repro.core.cleaning import ZonedCleaningTranslator
from repro.core.config import (
    LS,
    LS_ALL,
    NOLS,
    PAPER_CONFIGS,
    TechniqueConfig,
    build_translator,
)
from repro.core.multifrontier import MultiFrontierTranslator
from repro.core.recorders import SeekLogRecorder
from repro.core.selective_cache import SelectiveCacheConfig
from repro.core.simulator import replay
from repro.experiments.sweep import SweepEngine
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, make_address_map, resolve_map_tier
from repro.trace.msr import parse_msr_file
from repro.trace.store import TraceStore, load_trace
from repro.trace.writers import write_msr_trace
from repro.util.units import mib_to_sectors
from repro.workloads import (
    ReadMix,
    WorkloadSpec,
    WriteMix,
    generate_workload,
    synthesize_workload,
)

DEFAULT_OPS = 1_000_000
SCHEMA_VERSION = 1

# hm_1 is 95% reads over a hot zipf core (the paper's Fig. 7 subject);
# w84 is 86% writes, so the extent map churns instead.  Together they
# bracket the replay kernels' best and worst realistic cases.
READ_HEAVY = ("hm_1", 24_000)
WRITE_HEAVY = ("w84", 30_000)

#: The 16-point selective-cache capacity grid for the sweep benchmark
#: (log-ish spacing over the paper's 1–256 MB range).
CACHE_SWEEP_MIB = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)


def _timed(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time (best-of absorbs scheduler noise).

    Cyclic GC is suspended around each rep: by the time the later
    benchmarks run, the process retains millions of objects (traces,
    recorded streams) from the earlier ones, and full collections
    triggered mid-measurement scan all of them — charging earlier
    benchmarks' garbage to whichever side happens to allocate more
    containers.  Reference-counting still reclaims the (acyclic) bulk;
    one explicit collect between reps drains any cycles.
    """
    best = None
    for _ in range(repeat):
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            fn()
        finally:
            if gc_was_enabled:
                gc.enable()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _workload(name: str, base_ops: int, n_ops: int):
    # No floor on the scale: smoke runs (make bench-smoke) shrink the
    # traces below their base op counts to finish in seconds.
    scale = n_ops / base_ops
    return synthesize_workload(name, seed=42, scale=scale)


def bench_replay_pair(trace, config, repeat: int) -> dict:
    """Time reference vs. batch replay of ``trace`` under ``config``."""
    reference_s = _timed(
        lambda: replay(trace, build_translator(trace, config)), repeat
    )
    batch_s = _timed(lambda: batch_replay(trace, config), repeat)
    n = len(trace)
    return {
        "ops": n,
        "reference": {"seconds": round(reference_s, 4), "ops_per_s": round(n / reference_s)},
        "batch": {
            "seconds": round(batch_s, 4),
            "ops_per_s": round(n / batch_s),
            "speedup_vs_reference": round(reference_s / batch_s, 2),
        },
    }


def bench_multifrontier(trace, repeat: int) -> dict:
    """Reference vs. batch replay of the multi-frontier (WOLF-style)
    translator on the read-heavy trace.

    Both sides drive hand-built translators (the exact construction the
    ``ablation_multifrontier`` exhibit uses); the batch side runs on the
    kernel extent-map tier, same as :func:`batch_replay` would pick.
    """
    def make(tier=None):
        return MultiFrontierTranslator(
            frontier_base=trace.max_end,
            region_sectors=mib_to_sectors(2048.0),
            address_map=make_address_map(tier),
        )

    kernel_tier = resolve_map_tier(DEFAULT_KERNEL_TIER)
    reference_s = _timed(lambda: replay(trace, make()), repeat)
    batch_s = _timed(
        lambda: batch_replay_translator(trace, make(kernel_tier)), repeat
    )
    n = len(trace)
    return {
        "ops": n,
        "reference": _side(reference_s, n),
        "batch": _side(batch_s, n, reference_s),
    }


def _cleaning_workload(n_ops: int):
    """A hot-overwrite workload against a finite log (forces cleaning)."""
    spec = WorkloadSpec(
        name="cleaning-bench",
        family="cloudphysics",
        total_ops=n_ops,
        read_fraction=0.3,
        mean_read_kib=16.0,
        mean_write_kib=16.0,
        working_set_mib=64,
        hot_mib=32,
        write_mix=WriteMix(random=0.5, hot_overwrite=0.5),
        read_mix=ReadMix(scan=0.5, random=0.5),
        phases=4,
    )
    return generate_workload(spec, seed=42)


def bench_cleaning(n_ops: int, repeat: int) -> dict:
    """Reference vs. batch replay of the zoned-cleaning translator.

    The 256 MiB log (32 x 8 MiB zones) holds the workload's 64 MiB live
    set with 4x over-provisioning, so at full scale the replay wraps the
    log dozens of times and cleaning episodes dominate — the episodes
    themselves run the same reference relocation code on both sides; the
    batch win is the vectorized host stream between them.
    """
    trace = _cleaning_workload(n_ops)

    def make(tier=None):
        return ZonedCleaningTranslator(
            frontier_base=trace.max_end,
            zone_mib=8.0,
            n_zones=32,
            reserve_zones=2,
            address_map=make_address_map(tier),
        )

    kernel_tier = resolve_map_tier(DEFAULT_KERNEL_TIER)
    reference_s = _timed(lambda: replay(trace, make()), repeat)
    batch_s = _timed(
        lambda: batch_replay_translator(trace, make(kernel_tier)), repeat
    )
    n = len(trace)
    return {
        "ops": n,
        "reference": _side(reference_s, n),
        "batch": _side(batch_s, n, reference_s),
    }


def _nols_analyses_reference(trace) -> None:
    """The reference path for the Fig. 3/4 trace-level analyses: a full
    per-request NoLS replay with recorders, then the plain-Python CDF."""
    windowed = WindowedSeekRecorder()
    seek_log = SeekLogRecorder()
    replay(trace, build_translator(trace, NOLS), [windowed, seek_log])
    windowed.series()
    distance_cdf(seek_log.distances)


def _nols_analyses_fast(trace) -> None:
    """The vectorized equivalents (exact; see ``tests/differential/``)."""
    nols_windowed_long_seeks(trace)
    distance_cdf_fast(nols_seek_distances(trace))


def _side(seconds: float, n: int, reference_s: float = None) -> dict:
    entry = {"seconds": round(seconds, 4), "ops_per_s": round(n / seconds)}
    if reference_s is not None:
        entry["speedup_vs_reference"] = round(reference_s / seconds, 2)
    return entry


def bench_ingest(trace, repeat: int) -> dict:
    """Cold and warm end-to-end ingest+analyze of an MSR-format dump.

    *reference* parses with the per-line parser and runs the reference
    analyses; *columnar* parses with the bulk parser and runs the
    vectorized analyses; *warm_store* loads the compiled trace from a
    primed :class:`TraceStore` instead of parsing.  All three produce the
    identical analysis results — the differential suite enforces it — so
    the ratios are pure performance.
    """
    import tempfile

    n = len(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/ingest.csv"
        write_msr_trace(trace, path)

        def reference():
            parsed = parse_msr_file(path, engine="reference")
            _nols_analyses_reference(parsed)

        def columnar():
            parsed = parse_msr_file(path)
            _nols_analyses_fast(parsed)

        store = TraceStore(f"{tmp}/store")
        load_trace(path, "msr", store=store)  # prime the compiled store

        def warm():
            parsed = load_trace(path, "msr", store=store)
            _nols_analyses_fast(parsed)

        reference_s = _timed(reference, repeat)
        columnar_s = _timed(columnar, repeat)
        warm_s = _timed(warm, repeat)
    return {
        "ops": n,
        "reference": _side(reference_s, n),
        "columnar": _side(columnar_s, n, reference_s),
        "warm_store": _side(warm_s, n, reference_s),
    }


def bench_analysis(trace, repeat: int) -> dict:
    """Analysis kernels alone (trace already in memory): reference
    recorder replay vs. the vectorized kernels."""
    n = len(trace)
    reference_s = _timed(lambda: _nols_analyses_reference(trace), repeat)
    fast_s = _timed(lambda: _nols_analyses_fast(trace), repeat)
    return {
        "ops": n,
        "reference": _side(reference_s, n),
        "fast": _side(fast_s, n, reference_s),
    }


def bench_fig11_sweep(trace, repeat: int) -> dict:
    """A fig11-style grid on one workload: NoLS baseline + the four paper
    technique configs.  *reference* replays each config with the
    per-request simulator; *sweep* drives a fresh
    :class:`~repro.experiments.sweep.SweepEngine` (so the fragment-stream
    recording is timed too, exactly as a cold exhibit pays it).
    """
    configs = [NOLS] + list(PAPER_CONFIGS)
    n = len(trace)

    def reference():
        for config in configs:
            replay(trace, build_translator(trace, config))

    def fast():
        engine = SweepEngine(fast=True)
        engine.sweep(trace, configs)

    reference_s = _timed(reference, repeat)
    sweep_s = _timed(fast, repeat)
    return {
        "ops": n,
        "configs": len(configs),
        "reference": _side(reference_s, n),
        "sweep": _side(sweep_s, n, reference_s),
    }


def bench_cache_sweep(trace, repeat: int) -> dict:
    """The 16-point selective-cache capacity ablation on one workload.

    *reference* replays every capacity point with the per-request
    simulator; *sweep* records the fragment stream once and evaluates all
    sixteen points via the shared stack-distance kernel.
    """
    configs = [
        TechniqueConfig(
            name=f"cache{mib}",
            cache=SelectiveCacheConfig(capacity_mib=float(mib)),
        )
        for mib in CACHE_SWEEP_MIB
    ]
    n = len(trace)

    def reference():
        for config in configs:
            replay(trace, build_translator(trace, config))

    def fast():
        engine = SweepEngine(fast=True)
        engine.sweep(trace, configs)

    reference_s = _timed(reference, repeat)
    sweep_s = _timed(fast, repeat)
    return {
        "ops": n,
        "configs": len(configs),
        "reference": _side(reference_s, n),
        "sweep": _side(sweep_s, n, reference_s),
    }


#: The paper's exhibits (registry order) — the jobs_scaling subject.
PAPER_EXHIBITS = (
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10", "fig11",
)


def bench_jobs_scaling(scale: float, jobs: int = 4) -> dict:
    """End-to-end paper-exhibit regeneration: cold serial vs. the
    grid-sharded parallel runner over warm memory-mapped stores.

    *reference* is the best pre-store configuration — ``--fast``, serial,
    no persistent stores — so every run re-synthesizes workloads and
    re-records fragment streams in-process.  *cold_jobs4* adds the
    sharded pool plus empty trace/stream stores (priming them as it
    runs); *warm_jobs1* and *warm_jobs4* then replay against the primed
    stores, where traces and plain-LS streams are memory-mapped instead
    of recomputed.  All four cells write byte-identical exhibit JSON
    (asserted by ``tests/experiments/test_parallel_identity.py``), so
    the ratios are pure performance.  Workers fork (not spawn) so the
    cells measure replay, not interpreter start-up.
    """
    import contextlib
    import io
    import tempfile

    from repro.experiments.runner import run_exhibits

    def run_set(out_dir, n_jobs, trace_store=None, stream_store=None):
        outcomes = run_exhibits(
            list(PAPER_EXHIBITS),
            scale=scale,
            out_dir=out_dir,
            jobs=n_jobs,
            fast=True,
            trace_store=trace_store,
            stream_store=stream_store,
            mp_start_method="fork" if n_jobs > 1 else None,
            echo=lambda s: None,
        )
        bad = [o for o in outcomes if not o.ok]
        if bad:
            raise RuntimeError(
                f"jobs_scaling exhibit failures: "
                + ", ".join(f"{o.name}={o.status}" for o in bad)
            )

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
        io.StringIO()
    ):
        reference_s = _timed(lambda: run_set(f"{tmp}/ref", 1), 1)
        stores = {
            "trace_store": f"{tmp}/trace-store",
            "stream_store": f"{tmp}/stream-store",
        }
        cold_jobs_s = _timed(lambda: run_set(f"{tmp}/cold", jobs, **stores), 1)
        warm_serial_s = _timed(lambda: run_set(f"{tmp}/warm1", 1, **stores), 1)
        warm_jobs_s = _timed(lambda: run_set(f"{tmp}/warm{jobs}", jobs, **stores), 1)

    def cell(seconds: float) -> dict:
        return {
            "seconds": round(seconds, 2),
            "speedup_vs_reference": round(reference_s / seconds, 2),
        }

    return {
        "exhibits": list(PAPER_EXHIBITS),
        "scale": scale,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "reference": {"seconds": round(reference_s, 2)},
        "cold_jobs4": cell(cold_jobs_s),
        "warm_jobs1": cell(warm_serial_s),
        "warm_jobs4": cell(warm_jobs_s),
    }


def bench_ingest_parallel(scale: float, jobs: int = 4) -> dict:
    """Cold-store ingestion of every Table I workload, serial vs. pooled.

    Both cells drive :func:`repro.experiments.runner.ingest_workloads`
    against *fresh* trace/stream stores, so each pays the full cold path
    per workload exactly once: synthesis, compiled-trace publication,
    plain-LS fragment-stream recording and the NoLS baseline.  The cells
    do identical work (ingestion is per-workload idempotent), so the
    ratio isolates the pool's scheduling overhead — on a 1-core
    container jobs=4 cannot win, and the gate only demands it stays
    close to serial, catching regressions that duplicate ingest work
    across workers.
    """
    import contextlib
    import io
    import tempfile

    from repro.experiments.runner import ingest_workloads
    from repro.workloads import TABLE1

    names = list(TABLE1)

    def run_set(root: str, n_jobs: int) -> None:
        outcomes = ingest_workloads(
            names,
            scale=scale,
            trace_store=f"{root}/trace-store",
            stream_store=f"{root}/stream-store",
            jobs=n_jobs,
            mp_start_method="fork" if n_jobs > 1 else None,
        )
        bad = [o for o in outcomes if not o.ok]
        if bad:
            raise RuntimeError(
                "ingest failures: "
                + ", ".join(f"{o.name}={o.status}" for o in bad)
            )

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
        io.StringIO()
    ):
        reference_s = _timed(lambda: run_set(f"{tmp}/serial", 1), 1)
        jobs_s = _timed(lambda: run_set(f"{tmp}/jobs", jobs), 1)

    return {
        "workloads": len(names),
        "scale": scale,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "reference": {"seconds": round(reference_s, 2)},
        f"jobs{jobs}": {
            "seconds": round(jobs_s, 2),
            "speedup_vs_reference": round(reference_s / jobs_s, 2),
        },
    }


def bench_runner(scale: float = 0.05) -> dict:
    """Informational: serial vs. jobs=2 wall time over two real exhibits."""
    import contextlib
    import io
    import tempfile

    from repro.experiments.runner import run_exhibits

    names = ["fig8", "fig11"]
    quiet = {"echo": lambda s: None}
    # Serial exhibits print straight to stdout; keep the report clean.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
        io.StringIO()
    ):
        serial_s = _timed(
            lambda: run_exhibits(names, scale=scale, out_dir=f"{tmp}/serial", **quiet),
            1,
        )
        parallel_s = _timed(
            lambda: run_exhibits(
                names, scale=scale, out_dir=f"{tmp}/parallel", jobs=2, **quiet
            ),
            1,
        )
    return {
        "exhibits": names,
        "scale": scale,
        "serial_seconds": round(serial_s, 2),
        "jobs2_seconds": round(parallel_s, 2),
        "cpu_count": os.cpu_count(),
    }


def run(n_ops: int, repeat: int, include_runner: bool) -> dict:
    read_heavy = _workload(*READ_HEAVY, n_ops)
    write_heavy = _workload(*WRITE_HEAVY, n_ops)
    results = {
        "replay_nols": bench_replay_pair(read_heavy, NOLS, repeat),
        "replay_ls": bench_replay_pair(read_heavy, LS, repeat),
        "replay_ls_all": bench_replay_pair(read_heavy, LS_ALL, repeat),
        "replay_ls_write_heavy": bench_replay_pair(write_heavy, LS, repeat),
        "replay_ls_write_heavy_all": bench_replay_pair(write_heavy, LS_ALL, repeat),
        "replay_multifrontier": bench_multifrontier(read_heavy, repeat),
        "replay_cleaning": bench_cleaning(n_ops, repeat),
        "sweep_fig11": bench_fig11_sweep(read_heavy, repeat),
        "sweep_cache_ablation": bench_cache_sweep(read_heavy, repeat),
        "ingest_msr": bench_ingest(read_heavy, repeat),
        "analysis_nols": bench_analysis(read_heavy, repeat),
        "jobs_scaling": bench_jobs_scaling(scale=n_ops / DEFAULT_OPS),
        "ingest_cold_parallel": bench_ingest_parallel(scale=n_ops / DEFAULT_OPS),
    }
    report = {
        "schema": SCHEMA_VERSION,
        "ops": n_ops,
        "workloads": {"read_heavy": READ_HEAVY[0], "write_heavy": WRITE_HEAVY[0]},
        "python": sys.version.split()[0],
        "results": results,
    }
    if include_runner:
        report["runner"] = bench_runner()
    # High-water RSS of the whole run (this process + reaped pool
    # workers) — informational context for the timings above.
    from repro.util.rss import peak_rss_mib

    report["peak_rss_mib"] = round(peak_rss_mib(), 1)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="benchmarks/BENCH_core.json", metavar="FILE")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument("--repeat", type=int, default=1, help="best-of repeat count")
    parser.add_argument(
        "--no-runner", action="store_true", help="skip the (slow) runner timing"
    )
    args = parser.parse_args(argv)

    report = run(args.ops, args.repeat, include_runner=not args.no_runner)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    for name, pair in report["results"].items():
        parts = [f"reference {pair['reference']['seconds']:8.2f}s"]
        for side in (
            "batch", "sweep", "columnar", "warm_store", "fast",
            "cold_jobs4", "warm_jobs1", "warm_jobs4", "jobs4",
        ):
            if side in pair:
                parts.append(
                    f"{side} {pair[side]['seconds']:8.2f}s "
                    f"({pair[side]['speedup_vs_reference']:.2f}x)"
                )
        print(f"{name:22s} " + "   ".join(parts))
    if "runner" in report:
        runner = report["runner"]
        print(
            f"runner                 serial {runner['serial_seconds']:.2f}s   "
            f"jobs=2 {runner['jobs2_seconds']:.2f}s   "
            f"({runner['cpu_count']} cpu)"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
