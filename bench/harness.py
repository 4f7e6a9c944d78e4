"""What every workload shares: the run context, spans, timing, the machine.

A workload function receives a :class:`Run`, does its set-up, its timed
window and its verification, and leaves behind named metric values, a
count of attempted and failed operations, and correctness checks.  With
tracing on the run also carries a :class:`Ledger`; the benchmark's own
code opens a span around each call it makes into a layer (the program
itself has no spans yet), and the ledger turns them into self times.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: ``--seconds`` at which the sizes in :mod:`spec` are stated.
NOMINAL_SECONDS = 10.0

#: Stated with every result and never changed between commits: it is what
#: the serve workloads' latencies are latencies *of*.
FLUSH_POLICY = (
    "daemon at shipped defaults (queue_depth=16, coalesce_batches=64): "
    "WAL fsync per group, checkpoint every 50000 ops"
)


def child_env() -> Dict[str, str]:
    """Environment for the programs under test: the in-tree package first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Ledger:
    """Spans kept in memory: ``name, start, end, parent, workload``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = self.add(name, 0.0, 0.0, self._open[-1] if self._open else None)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> dict:
        """Record a span whose times were taken elsewhere (e.g. ``run.json``)."""
        record = {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "workload": self.workload,
        }
        self.spans.append(record)
        return record

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, inner in zip(self.spans, covered):
            own = span["end"] - span["start"] - inner
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals


class Run:
    """One workload run: its inputs, its scratch directory, its results."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        golden_path: Path,
        regen_golden: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ledger = Ledger(workload) if trace else None
        self.golden_path = golden_path
        self.regen_golden = regen_golden
        self.tmp = OUT_DIR / "tmp" / f"{workload}-{os.getpid()}"
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[dict] = []
        self.digests: Dict[str, str] = {}
        self.verify_s = 0.0

    def sized(self, count_at_nominal: float) -> int:
        """An op or batch count stated at the nominal run length, scaled."""
        return max(1, round(count_at_nominal * self.seconds / NOMINAL_SECONDS))

    def put(self, name: str, value: float, n: Optional[int] = None) -> None:
        self.metrics[name] = float(value)
        if n is not None:
            self.samples[name] = int(n)

    def check(self, name: str, ok: bool, detail: str = "", validity: bool = False) -> None:
        """Record a check.  A failed *validity* check says the measurement
        is not to be trusted (the generator ran late); any other failed
        check says the program's output is wrong."""
        self.checks.append(
            {"check": name, "ok": bool(ok), "detail": detail, "validity": validity}
        )

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks if not c["validity"])

    @property
    def valid(self) -> bool:
        return all(c["ok"] for c in self.checks if c["validity"])

    @contextlib.contextmanager
    def scratch(self) -> Iterator[Path]:
        """The run's private directory under ``bench/out``; removed after."""
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        try:
            yield self.tmp
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    @contextlib.contextmanager
    def verifying(self) -> Iterator[None]:
        """Time spent checking outputs: outside every window and ``setup_s``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.verify_s += time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    import resource

    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + children_kib) / 1024.0


def fsync_ms(directory: Path, repeats: int = 40) -> float:
    """Median cost of a raw 17 KB write + ``os.fsync`` (one WAL record of a
    1000-op batch) on the file system the daemon journals to."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fsync-probe-{os.getpid()}"
    blob = b"\0" * 17_000
    costs = []
    try:
        with open(path, "ab") as handle:
            for _ in range(repeats):
                start = time.perf_counter()
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
                costs.append((time.perf_counter() - start) * 1e3)
    finally:
        path.unlink(missing_ok=True)
    return median(costs)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _governor() -> str:
    try:
        path = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return "unreadable"


def fingerprint(seed: int, seconds: float) -> dict:
    """What two results must share before their numbers may be compared."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "governor": _governor(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": seed,
        "seconds": seconds,
        "flush_policy": FLUSH_POLICY,
        "machine.fsync_ms": fsync_ms(OUT_DIR / "tmp"),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
