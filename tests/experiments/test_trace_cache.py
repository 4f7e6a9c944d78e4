"""The workload-trace LRU is bounded by column bytes, not by entry count.

The exhibits visit the 21 Table-I traces in one fixed order over and over,
so an LRU holding fewer than 21 misses on every visit.
"""

import collections

import pytest

from repro.experiments import common
from repro.experiments.__main__ import main
from repro.experiments.sweep import reset_sweep_engines
from repro.workloads import TABLE1
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(autouse=True)
def _clean_state():
    def reset():
        common._trace_cache.clear()
        reset_sweep_engines()

    reset()
    yield
    reset()


@pytest.fixture
def generated(monkeypatch):
    """``(name, seed, scale)`` → times ``WorkloadGenerator.generate`` ran."""
    calls = collections.Counter()
    generate = WorkloadGenerator.generate

    def counting(self, seed=42, scale=1.0):
        calls[self._spec.name, seed, scale] += 1
        return generate(self, seed=seed, scale=scale)

    monkeypatch.setattr(WorkloadGenerator, "generate", counting)
    return calls


@pytest.mark.slow
def test_storeless_all_synthesizes_each_trace_once(generated, tmp_path, capsys):
    assert main(["all", "--fast", "--scale", "0.05", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert set(TABLE1) <= {name for name, _, _ in generated}
    assert set(generated.values()) == {1}


def test_cache_evicts_oldest_beyond_the_byte_budget(generated, monkeypatch):
    def fetch(name):
        return common.workload_trace(name, 1, 0.05)

    a, b, c = list(TABLE1)[:3]
    ops = {name: len(fetch(name)) for name in (a, b, c)}
    assert len(common._trace_cache) == 3
    common._trace_cache.clear()
    generated.clear()

    # Room for the last two only (25 column bytes per op).
    monkeypatch.setattr(common, "_TRACE_CACHE_BYTES", 25 * (ops[b] + ops[c]))
    for name in (a, b, c, c, b):
        fetch(name)
    assert len(common._trace_cache) == 2
    assert generated[b, 1, 0.05] == generated[c, 1, 0.05] == 1
    fetch(a)  # was evicted: synthesized again
    assert generated[a, 1, 0.05] == 2

    # A trace larger than the whole budget is still served, and kept.
    monkeypatch.setattr(common, "_TRACE_CACHE_BYTES", 1)
    common._trace_cache.clear()
    assert [fetch(name).name for name in (a, b)] == [a, b]
    assert len(common._trace_cache) == 1
