"""Shared fixtures for the test suite."""

import pytest

from repro.trace.record import IORequest
from repro.trace.trace import Trace


@pytest.fixture
def tiny_trace() -> Trace:
    """A six-op trace exercising reads, writes and overlaps."""
    return Trace(
        [
            IORequest.write(0, 8, 0.0),
            IORequest.write(16, 8, 0.001),
            IORequest.read(0, 8, 0.002),
            IORequest.write(4, 4, 0.003),
            IORequest.read(0, 24, 0.004),
            IORequest.read(16, 8, 0.005),
        ],
        name="tiny",
    )


@pytest.fixture
def request_constructions(monkeypatch):
    """Count ``IORequest.__init__`` calls (deterministic, no timing)."""
    made = []
    init = IORequest.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IORequest, "__init__", counting)
    return made


@pytest.fixture
def sequential_write_trace() -> Trace:
    """Sixteen back-to-back sequential writes (no seeks on any device)."""
    return Trace(
        [IORequest.write(i * 8, 8, i * 0.001) for i in range(16)],
        name="seqw",
    )
