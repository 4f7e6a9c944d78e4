"""The two offline workloads: ``exhibits`` and ``replay_read_hot``.

``exhibits`` is the paper-reproduction face: the exhibit CLI in a
subprocess on empty trace/stream stores (the timed window), then the
identical command on the now-warm stores (``rerun_ops_per_s``).

``replay_read_hot`` is the replay-my-trace face: ``hm_1`` synthesized and
written as an MSR CSV in set-up; the window is ``PASSES`` passes of
parse → sweep over NoLS + the paper configs → multi-frontier replay →
trace analyses → result JSON, and the median pass counts.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Tuple

import verify
from harness import Run, child_env, median, timed

from repro.analysis import fast
from repro.core.batch import batch_replay
from repro.core.config import (
    LS,
    NOLS,
    PAPER_CONFIGS,
    MultiFrontierConfig,
    TechniqueConfig,
    build_translator,
)
from repro.core.metrics import seek_amplification
from repro.core.simulator import replay
from repro.experiments.sweep import SweepEngine
from repro.trace.msr import parse_msr_file
from repro.trace.writers import write_msr_trace
from repro.workloads import TABLE1, get_spec, synthesize_workload

# Sizes at the nominal --seconds (harness.NOMINAL_SECONDS); Run.sized scales them.
EXHIBITS_SCALE = 0.4
REPLAY_TRACE = "hm_1"
REPLAY_OPS = 200_000
PASSES = 7
SETUPS = 3
REFERENCE_PREFIX_OPS = 15_000

MULTI_FRONTIER = TechniqueConfig(name="LS+mf", multi_frontier=MultiFrontierConfig())
SWEEP_CONFIGS = (NOLS,) + PAPER_CONFIGS
CONFIG_KEYS = {"NoLS": "nols", "LS": "ls", "LS+defrag": "ls_defrag",
               "LS+prefetch": "ls_prefetch", "LS+cache": "ls_cache", "LS+mf": "ls_mf"}


# --------------------------------------------------------------------- #
# exhibits
# --------------------------------------------------------------------- #


def exhibits_command(run: Run, scale: float, out: Path, stores: Path, *extra: str) -> List[str]:
    return [
        sys.executable, "-m", "repro.experiments", "all",
        "--scale", repr(scale), "--seed", str(run.seed), "--out", str(out),
        *(("--trace-store", str(stores / "trace"), "--stream-store", str(stores / "stream"))
          if stores else ()),
        *extra,
    ]


def run_cli(command: List[str]) -> Tuple[float, int, float]:
    """Run the exhibit CLI; ``(wall seconds, exit code, start time)``."""
    start = time.perf_counter()
    done = subprocess.run(
        command, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    return time.perf_counter() - start, done.returncode, start


def _manifest(out: Path) -> Dict[str, dict]:
    try:
        return json.loads((out / "run.json").read_text())["exhibits"]
    except (OSError, ValueError, KeyError):
        return {}


def _tally(run: Run, manifest: Dict[str, dict], returncode: int) -> int:
    """Count exhibits attempted and those not ok or served by a fallback."""
    fallbacks = sum(sum(e.get("fallbacks", {}).values()) for e in manifest.values())
    bad = [n for n, e in manifest.items() if e.get("status") != "ok" or e.get("fallbacks")]
    run.attempted += max(len(manifest), 1)
    run.failed += len(bad) if manifest else 1
    run.check(
        "every exhibit ok, none through a reference fallback",
        bool(manifest) and not bad and returncode == 0,
        f"exit {returncode}, {len(manifest)} exhibits, not ok or fallback: {bad}",
    )
    return fallbacks


def run_exhibits(run: Run) -> None:
    scale = EXHIBITS_SCALE * run.seconds / 10.0
    with run.scratch() as tmp:
        # Set-up: everything before the window that a user would also pay —
        # the interpreter with the package imported, and the directories.
        setups = []
        for attempt in range(SETUPS):
            start = time.perf_counter()
            (tmp / f"setup-{attempt}" / "stores").mkdir(parents=True)
            subprocess.run(
                [sys.executable, "-c", "import repro.experiments.__main__"],
                env=child_env(), check=True,
            )
            setups.append(time.perf_counter() - start)
        run.put("setup_s", median(setups), n=SETUPS)

        stores = tmp / "stores"
        fast_flags = ("--fast", "--jobs", "1")
        cold_s, cold_rc, cold_start = run_cli(
            exhibits_command(run, scale, tmp / "cold", stores, *fast_flags)
        )
        warm_s, warm_rc, _ = run_cli(
            exhibits_command(run, scale, tmp / "warm", stores, *fast_flags)
        )

        # Every Table-I trace once: what the cold run compiled into its store.
        ops = sum(
            json.loads(header.read_text())["ops"]
            for header in (stores / "trace").glob("*/header.json")
        )
        run.put("ops_per_s", ops / cold_s, n=1)
        run.put("rerun_ops_per_s", ops / warm_s, n=1)

        with run.verifying():
            cold = _manifest(tmp / "cold")
            fallbacks = _tally(run, cold, cold_rc) + _tally(run, _manifest(tmp / "warm"), warm_rc)
            run.check("the store holds every Table-I trace", ops > 0 and
                      len(list((stores / "trace").glob("*/header.json"))) == len(TABLE1))
            run.digests = {"exhibits": verify.files_digest(tmp / "cold")}
            run.check(
                "warm-store exhibits are byte-identical to cold",
                verify.files_digest(tmp / "warm") == run.digests["exhibits"],
            )

            def reference_digests() -> Dict[str, str]:
                run_cli(exhibits_command(run, scale, tmp / "reference", None))
                return {"exhibits": verify.files_digest(tmp / "reference")}

            verify.check_golden(run, reference_digests)

        if run.ledger is not None:
            import offline_ledger  # it imports this module

            offline_ledger.measure_exhibits(
                run, scale, tmp, stores, cold, cold_s, cold_start, fallbacks
            )


# --------------------------------------------------------------------- #
# replay_read_hot
# --------------------------------------------------------------------- #


def replay_pass(csv: Path, out: Path, span=contextlib.nullcontext):
    """One pass of the window; ``span`` wraps each call into a layer (the
    ledger run passes its own, the timed window passes nothing).

    Returns ``(parsed trace, stats by config, analyses, multi-frontier result)``.
    """
    with span("trace.parse"):
        parsed = parse_msr_file(csv)
    engine = SweepEngine(fast=True)
    with span("experiments.sweep"):
        swept = engine.sweep(parsed, SWEEP_CONFIGS)
    with span("core.multifrontier"):
        multi = batch_replay(parsed, MULTI_FRONTIER)
    analyses = {}
    with span("analysis.nols"):
        analyses["nols_distance_cdf"] = fast.distance_cdf_fast(fast.nols_seek_distances(parsed))
        analyses["windowed_long_seeks"] = fast.nols_windowed_long_seeks(parsed)
    with span("analysis.misorder"):
        analyses["misorder_rate"] = fast.misorder_rate_fast(parsed)
    with span("analysis.fragment_cdf"):
        analyses["fragment_cdf"] = fast.fragment_cdf_fast(
            engine.stream_for(parsed).group_size.tolist()
        )
    stats = {c.name: r.stats for c, r in zip(SWEEP_CONFIGS, swept)}
    stats[MULTI_FRONTIER.name] = multi.stats
    with span("write"):
        out.write_text(json.dumps(
            {"stats": {k: asdict(v) for k, v in stats.items()}, "analysis": analyses}
        ))
    return parsed, stats, analyses, multi


def result_digests(stats, analyses, distances) -> Dict[str, str]:
    digests = {f"stats.{CONFIG_KEYS[name]}": verify.digest(asdict(s))
               for name, s in stats.items()}
    digests.update(
        {f"distances.{CONFIG_KEYS[name]}": verify.array_digest(d)
         for name, d in distances.items()}
    )
    digests["analysis"] = verify.digest(analyses)
    return digests


def run_replay(run: Run) -> None:
    name = REPLAY_TRACE
    scale = run.sized(REPLAY_OPS) / get_spec(name).total_ops
    with run.scratch() as tmp:
        csv = tmp / f"{name}.csv"
        setups, synth = [], []
        for _ in range(SETUPS):
            start = time.perf_counter()
            trace, synth_s = timed(synthesize_workload, name, seed=run.seed, scale=scale)
            write_msr_trace(trace, csv)
            setups.append(time.perf_counter() - start)
            synth.append(synth_s)
        run.put("setup_s", median(setups), n=SETUPS)
        run.put("workloads.synth_ops_per_s", len(trace) / median(synth), n=SETUPS)

        passes, digests = [], []
        for _ in range(PASSES):
            (parsed, stats, analyses, multi), seconds = timed(
                replay_pass, csv, tmp / "result.json"
            )
            passes.append(seconds)
            with run.verifying():
                distances = {
                    "NoLS": batch_replay(parsed, NOLS).distances,
                    "LS": batch_replay(parsed, LS).distances,
                    MULTI_FRONTIER.name: multi.distances,
                }
                digests.append(result_digests(stats, analyses, distances))
        run.put("ops_per_s", len(parsed) / median(passes), n=PASSES)

        with run.verifying():
            run.digests = digests[0]
            mismatched = sum(
                digest != digests[0][key]
                for later in digests[1:] for key, digest in later.items()
            )
            run.attempted += PASSES * len(digests[0])
            run.failed += mismatched
            run.check("every pass produced the same simulated results", not mismatched,
                      f"{PASSES} passes x {len(digests[0])} digests")
            _check_prefix(run, parsed)
            baseline = stats["NoLS"]
            for config in PAPER_CONFIGS:
                key = CONFIG_KEYS[config.name]
                run.put(f"sim.saf_total.{key}",
                        seek_amplification(stats[config.name], baseline).total)
                run.put(f"sim.read_seeks.{key}", stats[config.name].read_seeks)
            verify.check_golden(run, lambda: _reference_digests(csv))

        if run.ledger is not None:
            import offline_ledger  # it imports this module

            offline_ledger.measure_replay(run, csv, tmp, median(passes), stats)


def _check_prefix(run: Run, parsed) -> None:
    """Kernel paths ≡ the reference simulator on the head of the trace."""
    prefix = parsed[: min(run.sized(REFERENCE_PREFIX_OPS), len(parsed))]
    engine = SweepEngine(fast=True)
    kernel = [r.stats for r in engine.sweep(prefix, SWEEP_CONFIGS)]
    kernel.append(batch_replay(prefix, MULTI_FRONTIER).stats)
    wrong = [
        config.name
        for config, stats in zip(SWEEP_CONFIGS + (MULTI_FRONTIER,), kernel)
        if stats != replay(prefix, build_translator(prefix, config)).stats
    ]
    run.check(
        f"kernels equal the reference simulator on the first {len(prefix)} ops",
        not wrong, f"differ: {wrong}" if wrong else f"{len(kernel)} configs",
    )


def _reference_digests(csv: Path) -> Dict[str, str]:
    """The window's digests through the per-request parser, simulator and
    recorder-based analyses (slow; ``--regen-golden`` only)."""
    from repro.analysis.distances import distance_cdf
    from repro.analysis.fragmentation import fragment_cdf
    from repro.analysis.misorder import misorder_rate
    from repro.analysis.temporal import WindowedSeekRecorder
    from repro.core.recorders import FragmentationRecorder, SeekLogRecorder

    parsed = parse_msr_file(csv, engine="reference")
    stats, distances = {}, {}
    for config in SWEEP_CONFIGS + (MULTI_FRONTIER,):
        stats[config.name], log = verify.reference_with_distances(
            parsed, build_translator(parsed, config)
        )
        if config.name in ("NoLS", "LS", MULTI_FRONTIER.name):
            distances[config.name] = log
    windowed, seek_log = WindowedSeekRecorder(), SeekLogRecorder()
    replay(parsed, build_translator(parsed, NOLS), [windowed, seek_log])
    fragments = FragmentationRecorder()
    replay(parsed, build_translator(parsed, LS), [fragments])
    analyses = {
        "nols_distance_cdf": distance_cdf(seek_log.distances),
        "windowed_long_seeks": windowed.series(),
        "misorder_rate": misorder_rate(parsed),
        "fragment_cdf": fragment_cdf(fragments.read_fragments),
    }
    return result_digests(stats, analyses, distances)
