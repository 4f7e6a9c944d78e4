"""Crash-safe experiment runner: isolation, timeouts, checkpoint/resume,
and a parallel (multi-process) execution mode.

A long ``python -m repro.experiments all`` run must survive a bad exhibit,
a hung exhibit, and a mid-run kill without losing completed work.  This
module wraps :func:`~repro.experiments.registry.run_exhibit` with:

* **Per-exhibit isolation** — an exhibit that raises is recorded (status +
  full traceback) and, with ``keep_going``, the run continues.
* **Per-exhibit timeout** — a SIGALRM-based watchdog (POSIX main thread
  only; silently disabled elsewhere) turns a hung exhibit into a
  ``timeout`` failure instead of a hung run.  In parallel mode every
  worker task runs in its own process's main thread, so the watchdog arms
  there too.
* **A run manifest** — ``<out_dir>/run.json``, rewritten atomically after
  every exhibit, records per-exhibit status, duration, error traceback and
  a ``(name, seed, scale, version)`` fingerprint.
* **Resume** — a rerun with ``resume=True`` skips exhibits whose manifest
  entry is ``ok``, whose fingerprint matches the current parameters, and
  whose JSON dump is present and valid; everything else is re-run.
* **Parallelism** — ``jobs=N`` fans the exhibits out across a process
  pool.  Exhibits are pure functions of ``(name, seed, scale)``, and each
  worker defensively reseeds the global :mod:`random` state per exhibit
  via :class:`~repro.util.rngtools.SeedSequenceFactory`, so a parallel
  run writes byte-identical exhibit JSON to a serial run; only the
  manifest's wall-clock durations differ.  The manifest stays
  single-writer (the parent), so checkpointing and resume work unchanged.
* **Grid sharding** — exhibits that declare a
  :class:`~repro.experiments.registry.Sharding` are split into
  per-workload shards under ``jobs > 1``: the pool schedules all units
  longest-first (shards weighted by their workload's operation count,
  unsplittable exhibits ahead of them), workers return picklable shard
  payloads, and the parent deterministically reassembles each exhibit
  with the module's ``merge`` — the same code path a serial run uses — so
  exhibit JSON and stdout stay byte-identical while fig11-class sweeps no
  longer pin one worker.  The manifest still tracks whole exhibits: a
  shard failure/timeout fails its exhibit (error prefixed ``shard <id>:``),
  and resume semantics are unchanged (exhibit-level fingerprints).  Every
  unit is submitted at once: two workers that race to synthesize one
  trace or record one stream are deduplicated by the persistent stores'
  atomic publish (first rename wins, the loser adopts the entry), not by
  the scheduler.

Because exhibit JSON dumps and the manifest are both written via
tmp-file+rename (:mod:`repro.util.io`), a run killed at any instant leaves
only complete, parseable JSON on disk.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import random
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import SHARDED, run_exhibit
from repro.util.io import atomic_write_json
from repro.util.rngtools import SeedSequenceFactory

MANIFEST_NAME = "run.json"

STATUS_RUNNING = "running"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"  # resume found a completed, matching entry


class ExhibitTimeoutError(Exception):
    """An exhibit exceeded its per-exhibit time budget."""


class RunInterrupted(BaseException):
    """The run was interrupted by a signal (SIGINT/SIGTERM).

    ``BaseException`` on purpose, like :class:`KeyboardInterrupt`: exhibit
    isolation must not swallow an operator's interrupt.  The runner
    finalizes the manifest (no dangling ``running`` entries) before this
    propagates, so a rerun with ``resume=True`` continues cleanly.
    """

    def __init__(self, signum: int) -> None:
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        super().__init__(f"run interrupted by {name}")
        self.signum = signum
        self.signal_name = name


@contextmanager
def run_signal_handlers():
    """Turn SIGINT/SIGTERM into :class:`RunInterrupted` inside the block.

    Only arms in the main thread of a POSIX process (a ``signal.signal``
    limitation, same as :func:`exhibit_timeout`); elsewhere the block
    runs with whatever handlers the host installed.  Previous handlers
    are restored on exit either way.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise RunInterrupted(signum)

    previous = {}
    for signum in (signal.SIGINT, getattr(signal, "SIGTERM", None)):
        if signum is None:
            continue
        try:
            previous[signum] = signal.signal(signum, _raise)
        except (ValueError, OSError):  # exotic hosts; run unprotected
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def exhibit_fingerprint(name: str, seed: int, scale: float) -> str:
    """Identity of one exhibit execution for resume matching.

    Two runs may share completed work only if exhibit name, seed, scale
    and library version all agree; a resume with different parameters
    re-runs everything.
    """
    from repro import __version__

    blob = json.dumps(
        {"name": name, "seed": seed, "scale": scale, "version": __version__},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ExhibitOutcome:
    """What happened to one exhibit in one run."""

    name: str
    status: str
    duration_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_SKIPPED)


class RunManifest:
    """The ``run.json`` checkpoint file.

    The manifest maps exhibit name → ``{status, duration_s, fingerprint,
    error, finished_at}`` plus run-level metadata.  It is saved atomically
    after every state change, so the file on disk is always complete and
    reflects the last finished (or started) exhibit.
    """

    def __init__(self, path: Path, seed: int, scale: float) -> None:
        self.path = Path(path)
        self.seed = seed
        self.scale = scale
        self.exhibits: Dict[str, dict] = {}

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        """Load an existing manifest (raises on missing/corrupt file)."""
        path = Path(path)
        with path.open() as handle:
            raw = json.load(handle)
        manifest = cls(path, seed=raw.get("seed", 0), scale=raw.get("scale", 1.0))
        manifest.exhibits = dict(raw.get("exhibits", {}))
        return manifest

    @classmethod
    def load_or_create(cls, path: Path, seed: int, scale: float) -> "RunManifest":
        """Load ``path`` if it is a valid manifest, else start fresh.

        A corrupt manifest (should be impossible given atomic writes, but
        disks happen) is treated as absent rather than aborting the run.
        """
        path = Path(path)
        if path.exists():
            try:
                return cls.load(path)
            except (OSError, ValueError):
                pass
        return cls(path, seed=seed, scale=scale)

    def save(self) -> None:
        atomic_write_json(
            self.path,
            {
                "manifest_version": 1,
                "seed": self.seed,
                "scale": self.scale,
                "exhibits": self.exhibits,
            },
        )

    def mark_running(self, name: str, fingerprint: str) -> None:
        self.exhibits[name] = {
            "status": STATUS_RUNNING,
            "fingerprint": fingerprint,
            "duration_s": 0.0,
            "error": None,
        }
        self.save()

    def mark_done(
        self,
        name: str,
        status: str,
        fingerprint: str,
        duration_s: float,
        error: Optional[str] = None,
        fallbacks: Optional[Dict[str, int]] = None,
    ) -> None:
        entry = {
            "status": status,
            "fingerprint": fingerprint,
            "duration_s": round(duration_s, 3),
            "error": error,
        }
        if fallbacks:
            # Per-reason counts of replays a --fast run served through the
            # reference simulator (see repro.experiments.common).
            entry["fallbacks"] = dict(fallbacks)
        self.exhibits[name] = entry
        self.save()

    def completed_ok(self, name: str, fingerprint: str) -> bool:
        """True if ``name`` finished successfully with this fingerprint."""
        entry = self.exhibits.get(name)
        return (
            entry is not None
            and entry.get("status") == STATUS_OK
            and entry.get("fingerprint") == fingerprint
        )


@contextmanager
def exhibit_timeout(seconds: Optional[float]):
    """Raise :class:`ExhibitTimeoutError` in the block after ``seconds``.

    Uses ``SIGALRM``/``setitimer``, so it only arms on POSIX in the main
    thread; anywhere else it is a no-op (the run still has per-exhibit
    isolation, just no watchdog).
    """
    can_alarm = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        yield
        return

    def _on_alarm(signum, frame):
        raise ExhibitTimeoutError(f"exhibit exceeded {seconds:g}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _json_dump_valid(path: Path) -> bool:
    try:
        with path.open() as handle:
            json.load(handle)
        return True
    except (OSError, ValueError):
        return False


def format_fallbacks(fallbacks: Dict[str, int]) -> str:
    """Render per-reason reference-fallback counts for CLI output.

    ``{"recorders": 3, "defrag": 1}`` becomes ``"3x recorders, 1x
    defrag"`` (descending count, then reason, so the dominant downgrade
    leads the line).
    """
    ordered = sorted(fallbacks.items(), key=lambda item: (-item[1], item[0]))
    return ", ".join(f"{count}x {reason}" for reason, count in ordered)


def _pool_worker(
    task: Tuple[
        str, Optional[str], int, float, Optional[str], Optional[str],
        Optional[float], bool, Optional[str], Optional[str],
    ],
) -> Tuple[
    str, Optional[str], str, float, Optional[str], List[str], str,
    Optional[dict], Dict[str, int],
]:
    """Run one scheduling unit (whole exhibit or one shard) in a worker.

    Returns ``(name, shard, status, duration_s, error, svg_paths,
    captured_stdout, payload, fallbacks)``; ``payload`` is the shard's
    picklable result (None for whole exhibits, whose JSON the worker
    writes itself) and ``fallbacks`` the per-reason reference-fallback
    counts the unit accrued under ``--fast`` (empty otherwise).  Never
    raises: every failure mode is folded into the status so the parent
    keeps its single-writer control of the manifest.
    """
    (
        name, shard, seed, scale, out_dir, svg_dir, timeout_s, fast,
        trace_store, stream_store,
    ) = task
    # Exhibits are pure functions of (name, seed, scale), but reseed the
    # process-global random state per exhibit anyway so any stray global
    # RNG use is deterministic per (seed, exhibit) rather than dependent
    # on worker task scheduling.
    random.seed(SeedSequenceFactory(seed).seed_for(f"exhibit:{name}"))
    from repro.experiments import common

    common.set_fast_replay(fast)
    common.set_trace_store(trace_store)
    common.set_stream_store(stream_store)
    captured = io.StringIO()
    svg_paths: List[str] = []
    payload: Optional[dict] = None
    start = time.time()
    status, error = STATUS_OK, None
    try:
        with redirect_stdout(captured), exhibit_timeout(timeout_s):
            if shard is not None:
                payload = SHARDED[name].run_shard(shard, seed=seed, scale=scale)
            else:
                data = run_exhibit(name, seed=seed, scale=scale, out_dir=out_dir)
                if svg_dir:
                    from repro.experiments.charts import render_svg

                    svg_paths = [str(p) for p in render_svg(name, data, svg_dir)]
    except ExhibitTimeoutError as exc:
        status, error = STATUS_TIMEOUT, str(exc)
    except BaseException:
        status, error = STATUS_FAILED, traceback.format_exc()
    return (
        name, shard, status, time.time() - start, error, svg_paths,
        captured.getvalue(), payload, common.drain_fallback_counts(),
    )


def _reap_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate and join a pool's worker processes (best effort).

    Used on interrupt: waiting politely for an in-flight fig11-class
    sweep defeats the point of Ctrl-C.  Exhibit/manifest writes are all
    atomic-rename, so killing workers mid-write leaves no torn files.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:
            pass


def _shard_weight(shard: str) -> int:
    """Longest-first scheduling weight of one shard (workload op count)."""
    try:
        from repro.workloads import get_spec

        return int(get_spec(shard).total_ops)
    except Exception:
        return 0


def _run_pending_parallel(
    pending: Sequence[str],
    manifest: Optional[RunManifest],
    seed: int,
    scale: float,
    out_dir: Optional[str],
    svg_dir: Optional[str],
    keep_going: bool,
    timeout_s: Optional[float],
    jobs: int,
    fast: bool,
    trace_store: Optional[str],
    stream_store: Optional[str],
    echo: Callable[[str], None],
    mp_start_method: Optional[str],
) -> Dict[str, ExhibitOutcome]:
    """Fan ``pending`` exhibits (and their shards) out over a process pool.

    The parent is the sole manifest writer: every pending exhibit is
    marked ``running`` up front (preserving the serial manifest's entry
    order), then marked done as it finishes.  Sharded exhibits
    (:data:`~repro.experiments.registry.SHARDED`) are expanded into
    per-workload shard units; all units are submitted longest-first
    (unsplittable exhibits ahead, then shards by descending workload op
    count), and an exhibit finishes when its last shard arrives and the
    parent's deterministic ``merge`` reassembles it.  Without
    ``keep_going`` the first failing unit cancels the not-yet-started
    units; exhibits left without a recorded outcome have their
    placeholder entries removed so the manifest matches a serial run that
    stopped at the failure.
    """
    context = multiprocessing.get_context(mp_start_method or "spawn")
    fingerprints = {name: exhibit_fingerprint(name, seed, scale) for name in pending}
    if manifest is not None:
        for name in pending:
            manifest.exhibits[name] = {
                "status": STATUS_RUNNING,
                "fingerprint": fingerprints[name],
                "duration_s": 0.0,
                "error": None,
            }
        manifest.save()

    # Expand sharded exhibits into units and order everything longest-first.
    shard_map: Dict[str, List[str]] = {}
    units: List[Tuple[float, str, Optional[str]]] = []
    for name in pending:
        sharding = SHARDED.get(name)
        shards = list(sharding.shards(seed, scale)) if sharding is not None else []
        if len(shards) > 1:
            shard_map[name] = shards
            for shard in shards:
                units.append((float(_shard_weight(shard)), name, shard))
        else:
            units.append((float("inf"), name, None))
    units.sort(key=lambda unit: -unit[0])

    shard_payloads: Dict[str, Dict[str, dict]] = {n: {} for n in shard_map}
    shard_durations: Dict[str, float] = {n: 0.0 for n in shard_map}
    shard_fallbacks: Dict[str, Dict[str, int]] = {n: {} for n in shard_map}
    shard_failures: Dict[str, Tuple[str, Optional[str]]] = {}
    results: Dict[str, ExhibitOutcome] = {}
    abort = False

    def record(name, status, duration, error, svg_paths, output, fallbacks=None):
        nonlocal abort
        if manifest is not None:
            manifest.mark_done(
                name, status, fingerprints[name], duration, error,
                fallbacks=fallbacks,
            )
        results[name] = ExhibitOutcome(name, status, duration, error)
        echo(f"=== {name} " + "=" * max(0, 66 - len(name)))
        if output.rstrip():
            echo(output.rstrip())
        for path in svg_paths:
            echo(f"(svg) {path}")
        if fallbacks:
            echo(f"(fallback) {format_fallbacks(fallbacks)}")
        if status == STATUS_OK:
            echo(f"--- {name} done in {duration:.1f}s\n")
        else:
            echo(f"--- {name} {status.upper()} after {duration:.1f}s")
            if error:
                echo(error.rstrip())
            echo("")
            if not keep_going:
                abort = True

    def merge_exhibit(name):
        """Deterministically reassemble a fully-sharded exhibit (parent)."""
        captured = io.StringIO()
        svg_paths: List[str] = []
        start = time.time()
        status, error = STATUS_OK, None
        try:
            with redirect_stdout(captured):
                data = SHARDED[name].merge(
                    shard_payloads[name], seed=seed, scale=scale, out_dir=out_dir
                )
            if svg_dir:
                from repro.experiments.charts import render_svg

                svg_paths = [str(p) for p in render_svg(name, data, svg_dir)]
        except Exception:
            status, error = STATUS_FAILED, traceback.format_exc()
        duration = shard_durations[name] + (time.time() - start)
        record(name, status, duration, error, svg_paths, captured.getvalue(),
               fallbacks=shard_fallbacks[name])

    def absorb(result):
        """Fold one worker result into exhibit-level bookkeeping."""
        (
            name, shard, status, duration, error, svg_paths, output, payload,
            fallbacks,
        ) = result
        if shard is None:
            record(name, status, duration, error, svg_paths, output,
                   fallbacks=fallbacks)
            return
        shard_durations[name] += duration
        for reason, count in fallbacks.items():
            bucket = shard_fallbacks[name]
            bucket[reason] = bucket.get(reason, 0) + count
        if name in results:
            return  # exhibit already failed on an earlier shard
        if status != STATUS_OK:
            if name not in shard_failures:
                shard_failures[name] = (status, f"shard {shard}: {error}")
                failure_status, failure_error = shard_failures[name]
                record(name, failure_status, shard_durations[name],
                       failure_error, [], output,
                       fallbacks=shard_fallbacks[name])
            return
        shard_payloads[name][shard] = payload
        if len(shard_payloads[name]) == len(shard_map[name]):
            merge_exhibit(name)

    interrupt: Optional[BaseException] = None
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        not_done = {
            pool.submit(
                _pool_worker,
                (
                    name, shard, seed, scale, out_dir, svg_dir, timeout_s,
                    fast, trace_store, stream_store,
                ),
            )
            for _weight, name, shard in units
        }
        try:
            with run_signal_handlers():
                while not_done and not abort:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        absorb(future.result())
        except (KeyboardInterrupt, RunInterrupted) as exc:
            # Operator interrupt: cancel everything not yet started, reap
            # the worker processes (their dumps are atomic, so a unit
            # killed mid-write leaves no torn file), and fall through to
            # finalize the manifest before re-raising.
            interrupt = exc
            for future in not_done:
                future.cancel()
            _reap_pool(pool)
        if interrupt is None and abort:
            for future in not_done:
                future.cancel()
            # In-flight units finish (their dumps/payloads stay valid);
            # record whatever completes into whole exhibits.
            for future in not_done:
                if not future.cancelled():
                    absorb(future.result())
            for name in shard_map:
                if name not in results and len(shard_payloads[name]) == len(
                    shard_map[name]
                ):
                    merge_exhibit(name)
            if manifest is not None:
                # Exhibits with no recorded outcome were never attempted
                # end-to-end; a serial manifest has no entry for them.
                dropped = [n for n in pending if n not in results]
                for name in dropped:
                    manifest.exhibits.pop(name, None)
                if dropped:
                    manifest.save()
    if interrupt is not None:
        # Finalize: no exhibit may be left marked ``running`` — resume
        # treats such entries as incomplete, but the manifest must say
        # what actually happened, not lie mid-sentence.
        if manifest is not None:
            dropped = [n for n in pending if n not in results]
            for name in dropped:
                manifest.exhibits.pop(name, None)
            if dropped:
                manifest.save()
        raise interrupt
    return results


def run_exhibits(
    names: Sequence[str],
    seed: int = 42,
    scale: float = 1.0,
    out_dir: Optional[str] = None,
    svg_dir: Optional[str] = None,
    keep_going: bool = False,
    timeout_s: Optional[float] = None,
    resume: bool = False,
    echo: Callable[[str], None] = print,
    jobs: int = 1,
    fast: bool = False,
    trace_store: Optional[str] = None,
    stream_store: Optional[str] = None,
    mp_start_method: Optional[str] = None,
) -> List[ExhibitOutcome]:
    """Run ``names`` with isolation, checkpointing, resume and parallelism.

    Returns one :class:`ExhibitOutcome` per *attempted* exhibit, in
    ``names`` order; without ``keep_going`` the run stops at the first
    failure (serial: later exhibits are not attempted; parallel: exhibits
    not yet started are cancelled, in-flight ones finish and are
    recorded).  The manifest is maintained only when ``out_dir`` is given
    (resume requires it).

    Args:
        jobs: Worker process count; ``1`` replays the classic serial path.
            With ``jobs > 1`` sharded exhibits split into per-workload
            units scheduled longest-first.  Exhibit JSON output is
            byte-identical either way.
        fast: Replay exhibits through the vectorized batch kernel
            (:mod:`repro.core.batch`; exact, so output is unchanged).
        trace_store: Directory of a persistent compiled-trace store
            (:mod:`repro.trace.store`); synthesized workload traces are
            compiled there on first use and loaded back on later runs.
            Exact, so output is unchanged; ``None`` disables.
        stream_store: Directory of a persistent stream store
            (:mod:`repro.core.stream_store`); recorded fragment streams
            are published there once machine-wide and memory-mapped by
            every other process.  Exact, so output is unchanged; ``None``
            disables.
        mp_start_method: multiprocessing start method for ``jobs > 1``
            (default ``"spawn"`` for hermetic workers; tests use
            ``"fork"`` to exercise failure injection).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    manifest: Optional[RunManifest] = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        manifest_path = out_path / MANIFEST_NAME
        if resume:
            manifest = RunManifest.load_or_create(manifest_path, seed, scale)
        else:
            manifest = RunManifest(manifest_path, seed=seed, scale=scale)
        manifest.seed, manifest.scale = seed, scale
        manifest.save()
    elif resume:
        raise ValueError("resume requires an out_dir (the manifest lives there)")

    def skip_on_resume(name: str, fingerprint: str) -> bool:
        return (
            resume
            and manifest is not None
            and manifest.completed_ok(name, fingerprint)
            and _json_dump_valid(Path(out_dir) / f"{name}.json")
        )

    if jobs > 1:
        skipped: Dict[str, ExhibitOutcome] = {}
        pending: List[str] = []
        for name in names:
            if skip_on_resume(name, exhibit_fingerprint(name, seed, scale)):
                echo(f"=== {name}: already complete, skipping (resume)")
                skipped[name] = ExhibitOutcome(name, STATUS_SKIPPED)
            else:
                pending.append(name)
        results = _run_pending_parallel(
            pending, manifest, seed, scale, out_dir, svg_dir,
            keep_going, timeout_s, jobs, fast, trace_store, stream_store,
            echo, mp_start_method,
        )
        return [
            outcome
            for name in names
            for outcome in (skipped.get(name) or results.get(name),)
            if outcome is not None
        ]

    from repro.experiments import common

    previous_fast = common.fast_replay_default()
    previous_store = common.trace_store()
    previous_stream_store = common.stream_store()
    common.set_fast_replay(fast)
    common.set_trace_store(trace_store)
    common.set_stream_store(stream_store)
    common.drain_fallback_counts()  # attribute counts per exhibit, not run
    outcomes: List[ExhibitOutcome] = []
    try:
        with run_signal_handlers():
            for name in names:
                fingerprint = exhibit_fingerprint(name, seed, scale)
                if skip_on_resume(name, fingerprint):
                    echo(f"=== {name}: already complete, skipping (resume)")
                    outcomes.append(ExhibitOutcome(name, STATUS_SKIPPED))
                    continue
                if manifest is not None:
                    manifest.mark_running(name, fingerprint)
                echo(f"=== {name} " + "=" * max(0, 66 - len(name)))
                start = time.time()
                status, error = STATUS_OK, None
                try:
                    with exhibit_timeout(timeout_s):
                        data = run_exhibit(
                            name, seed=seed, scale=scale, out_dir=out_dir
                        )
                        if svg_dir:
                            from repro.experiments.charts import render_svg

                            for path in render_svg(name, data, svg_dir):
                                echo(f"(svg) {path}")
                except ExhibitTimeoutError as exc:
                    status, error = STATUS_TIMEOUT, str(exc)
                except (KeyboardInterrupt, RunInterrupted) as exc:
                    # Finalize the manifest mid-exhibit: the interrupted
                    # exhibit is failed (it did not finish), everything
                    # before it keeps its recorded status, and a rerun
                    # with resume=True picks up exactly here.
                    cause = (
                        f"interrupted ({exc.signal_name})"
                        if isinstance(exc, RunInterrupted)
                        else "interrupted (KeyboardInterrupt)"
                    )
                    if manifest is not None:
                        manifest.mark_done(
                            name, STATUS_FAILED, fingerprint,
                            time.time() - start, cause,
                        )
                    raise
                except Exception:
                    status, error = STATUS_FAILED, traceback.format_exc()
                duration = time.time() - start
                fallbacks = common.drain_fallback_counts()

                if manifest is not None:
                    manifest.mark_done(
                        name, status, fingerprint, duration, error,
                        fallbacks=fallbacks,
                    )
                outcomes.append(ExhibitOutcome(name, status, duration, error))
                if fallbacks:
                    echo(f"(fallback) {format_fallbacks(fallbacks)}")
                if status == STATUS_OK:
                    echo(f"--- {name} done in {duration:.1f}s\n")
                else:
                    echo(f"--- {name} {status.upper()} after {duration:.1f}s")
                    if error:
                        echo(error.rstrip())
                    echo("")
                    if not keep_going:
                        break
    finally:
        common.set_fast_replay(previous_fast)
        common.set_trace_store(previous_store)
        common.set_stream_store(previous_stream_store)
    return outcomes


def format_outcome_table(outcomes: Sequence[ExhibitOutcome]) -> str:
    """Render the end-of-run pass/fail summary table."""
    width = max([len(o.name) for o in outcomes] + [len("exhibit")])
    lines = [
        f"{'exhibit'.ljust(width)}  {'status':8}  duration",
        f"{'-' * width}  {'-' * 8}  --------",
    ]
    for outcome in outcomes:
        lines.append(
            f"{outcome.name.ljust(width)}  {outcome.status:8}  "
            f"{outcome.duration_s:7.1f}s"
        )
    ok = sum(1 for o in outcomes if o.ok)
    lines.append(f"{ok}/{len(outcomes)} exhibits ok")
    return "\n".join(lines)
