"""An engine's trace memo holds one trace, and a run still builds each once.

The runner fills the result table one trace per task, so the exhibits
never come back to a trace after its task.
"""

import collections

import pytest

from repro.experiments.__main__ import main
from repro.experiments.sweep import SweepEngine
from repro.workloads import TABLE1
from repro.workloads.generator import WorkloadGenerator


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


def test_memo_keeps_only_the_last_trace(generated):
    a, b = list(TABLE1)[:2]
    engine = SweepEngine(1, 0.05)
    first = engine.trace(a)
    assert engine.trace(a) is first
    assert engine.trace(b).name == b
    assert engine.trace(a) is not first  # was dropped: synthesized again
    assert generated[a, 1, 0.05] == 2 and generated[b, 1, 0.05] == 1
