"""Crash-safe experiment runner: isolation, timeouts, checkpoint/resume,
and one fill of the result table, in process or over a pool.

A long ``python -m repro.experiments all`` run must survive a bad exhibit,
a hung exhibit, and a mid-run kill without losing completed work.  This
module runs the exhibits of :data:`~repro.experiments.registry.EXHIBITS`,
each ``run(engine) -> dict`` on the run's one engine, with:

* **Per-exhibit isolation** — an exhibit that raises is recorded (status +
  full traceback) and, with ``keep_going``, the run continues.
* **Per-exhibit timeout** — a SIGALRM-based watchdog (POSIX main thread
  only; silently disabled elsewhere) turns a hung exhibit into a
  ``timeout`` failure instead of a hung run; it arms in fill tasks too.
* **A run manifest** — ``<out_dir>/run.json``, rewritten atomically after
  every exhibit, records the fill's wall time (``fill_s``), per-exhibit
  status, render duration, error traceback and a ``(name, seed, scale,
  version)`` fingerprint.
* **Resume** — a rerun with ``resume=True`` skips exhibits whose manifest
  entry is ``ok``, whose fingerprint matches the current parameters, and
  whose JSON dump is present and valid; everything else is re-run.
* **One fill** — every run builds one per-trace result table
  (:class:`~repro.experiments.sweep.SweepEngine`) and first fills it, one
  task per Table-I trace the pending exhibits read
  (:data:`~repro.experiments.registry.NEEDS`), longest first by op count:
  in this process at ``jobs=1``, over a ``spawn`` process pool of ``jobs``
  workers otherwise.  A task synthesises or loads its trace once, records
  its stream once and returns its rows; the run absorbs them and then
  renders the exhibits from the table, so exhibit JSON is byte-identical
  at any ``jobs``.  A task that raises or times out is echoed, and the
  exhibit that asks for one of its rows recomputes it.

The runner writes each exhibit's JSON (and, when asked, its SVG charts).
Because exhibit JSON dumps and the manifest are both written via
tmp-file+rename (:mod:`repro.util.io`), a run killed at any instant leaves
only complete, parseable JSON on disk.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import registry
from repro.experiments.common import save_json
from repro.experiments.sweep import SweepEngine
from repro.util.io import atomic_write_json

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

    previous = {signum: signal.signal(signum, _raise)
                for signum in (signal.SIGINT, signal.SIGTERM)}
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
    error}`` plus run-level metadata: seed, scale and ``fill_s``, the wall
    time the result table took to fill (an exhibit's ``duration_s`` is its
    render time only).  It is saved atomically
    after every state change, so the file on disk is always complete and
    reflects the last finished (or started) exhibit.
    """

    def __init__(self, path: Path, seed: int, scale: float) -> None:
        self.path = Path(path)
        self.seed = seed
        self.scale = scale
        self.fill_s = 0.0
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
                "fill_s": round(self.fill_s, 3),
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
        error: Optional[str],
    ) -> None:
        self.exhibits[name] = {
            "status": status,
            "fingerprint": fingerprint,
            "duration_s": round(duration_s, 3),
            "error": error,
        }
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


def _fill_task(task: tuple) -> tuple:
    """One fill task: every row the pending exhibits read from one trace
    (:meth:`~repro.experiments.sweep.SweepEngine.fill`), under the
    per-exhibit time budget."""
    name, items, seed, scale, timeout_s, trace_store = task
    with exhibit_timeout(timeout_s):
        return SweepEngine(seed, scale, trace_store=trace_store).fill(name, items)


def _reap_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate and join a pool's workers (best effort), on interrupt.
    Store writes are all atomic-rename: a killed worker leaves no torn file."""
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


def _needs(names: Sequence[str]) -> Dict[str, list]:
    """The rows ``names`` read, per workload, each item once."""
    wanted: Dict[str, list] = {}
    for name in names:
        for workload, items in registry.NEEDS.get(name, {}).items():
            bucket = wanted.setdefault(workload, [])
            for item in items:
                if item not in bucket:
                    bucket.append(item)
    return wanted


def _fill_table(
    engine: SweepEngine, names: Sequence[str], jobs: int, echo, timeout_s, trace_store
) -> None:
    """Fill ``engine``'s result table: one task per trace ``names`` read,
    longest first by op count, in this process at ``jobs=1`` and over a
    ``spawn`` pool otherwise.  Each task builds its own engine on the run's
    trace store, under the run's time budget."""
    from repro.workloads import get_spec

    wanted = _needs(names)
    order = sorted(wanted, key=lambda workload: -get_spec(workload).total_ops)
    tasks = [
        (workload, wanted[workload], engine.seed, engine.scale, timeout_s, trace_store)
        for workload in order
    ]

    def absorb(workload: str, result: Callable[[], tuple]) -> None:
        try:
            filled = result()
        except Exception as exc:  # the exhibits that ask recompute its rows
            echo(f"(fill) {workload}: {type(exc).__name__}: {exc}")
            return
        engine.absorb(filled)

    if jobs == 1 or not tasks:
        for task in tasks:
            absorb(task[0], lambda: _fill_task(task))
        return
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), mp_context=context) as pool:
        futures = {pool.submit(_fill_task, task): task[0] for task in tasks}
        not_done = set(futures)
        try:
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    absorb(futures[future], future.result)
        except (KeyboardInterrupt, RunInterrupted):
            for future in not_done:
                future.cancel()
            _reap_pool(pool)
            raise


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
    trace_store: Optional[str] = None,
) -> List[ExhibitOutcome]:
    """Run ``names`` with isolation, checkpointing, resume and parallelism.

    Returns one :class:`ExhibitOutcome` per *attempted* exhibit, in
    ``names`` order; without ``keep_going`` the run stops at the first
    failure (later exhibits are not attempted).  The manifest is
    maintained only when ``out_dir`` is given (resume requires it).

    Args:
        jobs: Worker processes that fill the result table first, one
            Table-I trace per task; ``1`` runs the same tasks in this
            process.  Exhibit JSON is byte-identical either way.
        trace_store: Directory of a persistent compiled-trace store
            (:mod:`repro.trace.store`); synthesized workload traces are
            compiled there on first use and loaded back on later runs.
            Exact, so output is unchanged; ``None`` disables.
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

    engine = SweepEngine(seed, scale, trace_store=trace_store)
    outcomes: List[ExhibitOutcome] = []
    with run_signal_handlers():
        fill_start = time.time()
        pending = [
            name for name in names
            if not skip_on_resume(name, exhibit_fingerprint(name, seed, scale))
        ]
        _fill_table(engine, pending, jobs, echo, timeout_s, trace_store)
        if manifest is not None:
            manifest.fill_s = time.time() - fill_start
            manifest.save()
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
                    data = registry.EXHIBITS[name](engine)
                    save_json(name, data, out_dir)
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

            if manifest is not None:
                manifest.mark_done(name, status, fingerprint, duration, error)
            outcomes.append(ExhibitOutcome(name, status, duration, error))
            if status == STATUS_OK:
                echo(f"--- {name} done in {duration:.1f}s\n")
            else:
                echo(f"--- {name} {status.upper()} after {duration:.1f}s")
                if error:
                    echo(error.rstrip())
                echo("")
                if not keep_going:
                    break
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
