"""Every exhibit against its reference oracle, byte for byte.

Exhibits are computed by the column kernels only.  Each case here renders
one exhibit twice: as shipped, and with the reference
:class:`~repro.core.simulator.Simulator` answering every point
(``SweepEngine(fast=False)``) and the recorder replays and request loops
below answering every analysis row.  Both renderings must write the same
JSON bytes.  Toy scale, reduced workload sets.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.analysis.distances import distance_cdf, fraction_within
from repro.analysis.fragmentation import fragment_cdf, fraction_of_fragments_in_top_reads
from repro.analysis.fast import LONG_SEEK_KIB, MISORDER_HORIZON_KIB
from repro.analysis.misorder import misorder_rate
from repro.analysis.popularity import FragmentPopularityRecorder
from repro.analysis.temporal import WindowedSeekRecorder, long_seek_difference
from repro.core.config import LS, NOLS, build_translator
from repro.core.recorders import FragmentationRecorder, SeekLogRecorder
from repro.core.simulator import replay
from repro.experiments import (ablations, fig2, fig3, fig4, fig5, fig7, fig8, fig10, fig11, sweep,
                               table1)
from repro.experiments.common import save_json
from repro.experiments.registry import EXHIBITS
from repro.workloads import TABLE1
from tests.analysis.request_loops import characterize_loop, compute_stats_loop

SEED, SCALE = 42, 0.05
WORKLOADS = ("usr_0", "hm_1", "w91", "w20")


def _replay(trace, config, *recorders):
    return replay(trace, build_translator(trace, config), recorders)


def fig3_reference(engine, trace):
    ls, nols = (
        WindowedSeekRecorder(window_ops=fig3.WINDOW_OPS, min_seek_kib=LONG_SEEK_KIB)
        for _ in range(2)
    )
    _replay(trace, LS, ls)
    _replay(trace, NOLS, nols)
    return long_seek_difference(ls, nols)


def fig4_reference(engine, trace):
    nols, ls = SeekLogRecorder(), SeekLogRecorder()
    _replay(trace, NOLS, nols)
    _replay(trace, LS, ls)
    window = fig4.WINDOW_GIB
    return {
        "nols_fraction": fraction_within(nols.distances, window),
        "ls_fraction": fraction_within(ls.distances, window),
        "nols_cdf": [(int(x), float(f)) for x, f in distance_cdf(nols.distances, window)],
        "ls_cdf": [(int(x), float(f)) for x, f in distance_cdf(ls.distances, window)],
    }


def fig5_reference(engine, trace):
    recorder = FragmentationRecorder()
    _replay(trace, LS, recorder)
    fragments = recorder.fragmented_read_fragments
    return {
        "fragmented_reads": len(fragments),
        "total_fragments": sum(fragments),
        "max_fragments_per_read": max(fragments) if fragments else 0,
        "top20": fraction_of_fragments_in_top_reads(recorder.read_fragments, 0.2),
        "cdf": [(float(x), float(f)) for x, f in fragment_cdf(recorder.read_fragments)],
    }


def fig7_reference(engine, trace):
    lbas = [request.lba for request in trace if not request.is_read]

    def descending(xs):
        return sum(b < a for a, b in zip(xs, xs[1:])) / (len(xs) - 1) if len(xs) > 1 else 0.0

    sample = lbas[: fig7.SAMPLE_OPS]
    return {
        "sample_ops": len(sample),
        "lbas": sample,
        "descending_step_fraction_sample": round(descending(sample), 4),
        "descending_step_fraction_all": round(descending(lbas), 4),
    }


def fig10_reference(engine, trace):
    recorder = FragmentPopularityRecorder()
    _replay(trace, LS, recorder)
    return fig10.popularity_row(recorder.curve())


ORACLE_BODIES = (
    (table1, "trace_stats", lambda engine, trace: compute_stats_loop(trace)),
    (fig3, "long_seek_diff", fig3_reference),
    (fig4, "distance_cdfs", fig4_reference),
    (fig5, "fragmentation", fig5_reference),
    (fig7, "write_sample", fig7_reference),
    (fig8, "misorder", lambda engine, trace: round(misorder_rate(trace, MISORDER_HORIZON_KIB), 5)),
    (fig10, "popularity", fig10_reference),
    (ablations, "character", lambda engine, trace: characterize_loop(trace)),
    (ablations, "_replay", lambda trace, translator: replay(trace, translator)),
)


@pytest.fixture(autouse=True)
def _small_sets(monkeypatch):
    for module, attr in (
        (fig2, "FIG2_MSR"), (fig2, "FIG2_CLOUDPHYSICS"), (fig3, "FIG3_WORKLOADS"),
        (fig4, "FIG4_WORKLOADS"), (fig5, "FIG5_WORKLOADS"), (fig10, "FIG10_WORKLOADS"),
        (fig11, "MSR_WORKLOADS"), (fig11, "CLOUDPHYSICS_WORKLOADS"),
    ):
        monkeypatch.setattr(module, attr, WORKLOADS)
    for module in (table1, fig8, ablations):
        monkeypatch.setattr(module, "TABLE1", {name: TABLE1[name] for name in WORKLOADS})


def _render(name, out_dir, engine):
    with contextlib.redirect_stdout(io.StringIO()):
        save_json(name, EXHIBITS[name](engine), str(out_dir))
    return (out_dir / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", list(EXHIBITS))
def test_exhibit_matches_reference(name, tmp_path, monkeypatch):
    kernel = _render(name, tmp_path / "kernel", sweep.SweepEngine(SEED, SCALE))
    for module, attr, body in ORACLE_BODIES:
        monkeypatch.setattr(module, attr, body)
    oracle = sweep.SweepEngine(SEED, SCALE, fast=False)
    assert _render(name, tmp_path / "reference", oracle) == kernel
    assert oracle.streams_recorded == 0, "a kernel answered the reference rendering"
