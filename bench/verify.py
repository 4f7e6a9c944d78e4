"""The correctness gate: simulated results must not move.

A speed-up of the simulator is only admissible if every simulated
statistic stays bit-identical, so each workload reduces its simulated
results to digests and three kinds of check run on them:

* **golden** — for a seed that has a file under ``bench/golden`` (seed 42
  is checked in), digests must equal the recorded ones, which were produced
  once through the *reference* ``Simulator`` path (``--regen-golden``);
* **cross-path, any seed** — served stats ≡ an offline kernel replay of the
  same ops, recovered stats ≡ served stats, warm-store exhibits ≡ cold;
* **kernel ≡ reference, any seed** — on a prefix of each trace, short
  enough for the per-request reference simulator.

All of it is timed as ``verify_s`` and kept out of the windows and out of
``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from harness import Run, timed

from repro.analysis.incremental import IncrementalNolsBaseline
from repro.core.batch import DEFAULT_CHUNK_OPS, IncrementalBatchReplay
from repro.core.config import LS, NOLS, TechniqueConfig, build_translator_for_base
from repro.core.metrics import seek_amplification
from repro.core.outcomes import SimStats
from repro.core.recorders import SeekLogRecorder
from repro.core.simulator import replay
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, resolve_map_tier
from repro.trace.columnar import ColumnarTrace, TraceColumns


def digest(payload) -> str:
    """SHA-256 of a JSON-able value in canonical form."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def array_digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


def files_digest(directory: Path, skip=("run.json",)) -> str:
    """One digest over the bytes of every JSON file in ``directory``."""
    sha = hashlib.sha256()
    for path in sorted(directory.glob("*.json")):
        if path.name not in skip:
            sha.update(path.name.encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


def golden_key(run: Run) -> str:
    return f"{run.workload}@{run.seconds:g}s"


def check_golden(run: Run, reference: Callable[[], Dict[str, str]]) -> None:
    """Compare ``run.digests`` with the golden file of this seed, if any.

    With ``--regen-golden`` the golden entry is rebuilt from ``reference()``
    — the same digests taken through the reference simulator — and the
    run's own (kernel-path) digests must already agree with it.
    """
    path = run.golden_path
    golden = json.loads(path.read_text()) if path.exists() else {}
    key = golden_key(run)
    if run.regen_golden:
        golden[key] = reference()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    if key not in golden:
        return
    wrong = sorted(
        name for name in set(golden[key]) | set(run.digests)
        if golden[key].get(name) != run.digests.get(name)
    )
    run.check(
        f"simulated results equal {path.name}[{key}] (reference simulator)",
        not wrong,
        f"digests differ: {wrong}" if wrong else f"{len(run.digests)} digests",
    )


def kernel_translator(capacity: int, config: TechniqueConfig):
    """A fresh translator as the service builds it (kernel extent-map tier)."""
    return build_translator_for_base(
        capacity, config, resolve_map_tier(DEFAULT_KERNEL_TIER)
    )


def kernel_engine(capacity: int, config: TechniqueConfig, **kwargs) -> IncrementalBatchReplay:
    return IncrementalBatchReplay(kernel_translator(capacity, config), **kwargs)


def feed_chunked(engine: IncrementalBatchReplay, is_read, lba, length) -> None:
    for start in range(0, len(lba), DEFAULT_CHUNK_OPS):
        rows = slice(start, start + DEFAULT_CHUNK_OPS)
        engine.feed_arrays(is_read[rows], lba[rows], length[rows])


def columns_trace(is_read, lba, length, name: str) -> ColumnarTrace:
    timestamps = np.zeros(len(lba), dtype=np.float64)
    return ColumnarTrace(TraceColumns(timestamps, is_read, lba, length), name=name)


def saf_reply(stats: SimStats, baseline: SimStats) -> dict:
    """What the session's ``saf`` query answers, from two stats objects."""
    saf = seek_amplification(stats, baseline)
    return {
        "read": saf.read,
        "write": saf.write,
        "total": saf.total,
        "baseline_read_seeks": baseline.read_seeks,
        "baseline_write_seeks": baseline.write_seeks,
    }


def check_served(run: Run, stream, served: dict, prefix_ops: int) -> None:
    """Served ≡ offline kernel ≡ recovered; kernel ≡ reference on a prefix."""
    replies = served["replies"]
    columns = (stream.is_read, stream.lba, stream.length)

    engine = kernel_engine(stream.capacity, LS, track_fragments=True)
    _, replay_s = timed(feed_chunked, engine, *columns)
    run.put("core.batch.ls_ops_per_s", stream.ops / replay_s)
    offline = asdict(engine.stats())
    baseline = IncrementalNolsBaseline()
    baseline.feed_arrays(*columns)
    nols = SimStats()
    nols.read_seeks, nols.write_seeks = baseline.counts()

    run.check(
        "daemon applied every batch",
        replies["applied"] == {"applied_seq": stream.n_batches, "ops": stream.ops},
        f"applied reply {replies['applied']}",
    )
    run.check(
        "served stats equal an offline kernel replay of the same ops",
        replies["stats"] == offline,
        f"{stream.ops} ops",
    )
    run.check(
        "served SAF equals offline SAF",
        replies["saf"] == saf_reply(engine.stats(), nols),
        f"served {replies['saf']}",
    )
    expected = dict(offline, ops_applied=stream.ops)
    run.check(
        "every recovered session equals the served one",
        all(recovered == expected for recovered in served["recovered_stats"]),
        f"{len(served['recovered_stats'])} recoveries from checkpoint + WAL tail",
    )

    prefix_ops = min(prefix_ops, stream.ops)
    prefix = tuple(column[:prefix_ops] for column in columns)
    kernel = kernel_engine(stream.capacity, LS)
    kernel.feed_arrays(*prefix)
    reference = replay(
        columns_trace(*prefix, name="prefix"),
        build_translator_for_base(stream.capacity, LS),
    )
    run.check(
        f"kernel equals the reference simulator on the first {prefix_ops} ops",
        kernel.stats() == reference.stats,
    )

    if replies["saf"] and replies["stats"]:
        run.put("sim.saf_total.ls", replies["saf"]["total"])
        run.put("sim.read_seeks.ls", replies["stats"]["read_seeks"])
    run.digests = {"stats": digest(replies["stats"]), "saf": digest(replies["saf"])}

    def reference_digests() -> Dict[str, str]:
        whole = columns_trace(*columns, name="served")
        ls = replay(whole, build_translator_for_base(stream.capacity, LS)).stats
        base = replay(whole, build_translator_for_base(stream.capacity, NOLS)).stats
        return {"stats": digest(asdict(ls)), "saf": digest(saf_reply(ls, base))}

    check_golden(run, reference_digests)


def reference_with_distances(trace, translator):
    """Reference replay returning ``(stats, seek distances in order)``."""
    recorder = SeekLogRecorder()
    result = replay(trace, translator, [recorder])
    return result.stats, np.asarray(recorder.distances, dtype=np.int64)
