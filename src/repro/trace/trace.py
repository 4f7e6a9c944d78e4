"""In-memory trace container.

A :class:`Trace` is a named, ordered sequence of
:class:`~repro.trace.record.IORequest` plus the derived quantities the
simulator needs up front (maximum LBA, so the log-structured write frontier
can start above it, per the paper's "unwritten data sits at its LBA" rule).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.trace.record import IORequest, OpType


class Trace:
    """An ordered block I/O trace.

    Args:
        requests: Requests in replay order.  Timestamps are expected to be
            non-decreasing but this is not enforced (some real traces carry
            completion-time jitter).
        name: Workload identifier used in reports (e.g. ``"w91"``).
    """

    def __init__(self, requests: Iterable[IORequest], name: str = "trace") -> None:
        self._requests: List[IORequest] = list(requests)
        self._name = name
        self._max_end: Optional[int] = None
        self._arrays = None
        self._timestamps = None
        #: Filled by the parsers in :mod:`repro.trace` with the
        #: :class:`~repro.trace.errors.ParseReport` of the parse that built
        #: this trace; None for synthetic or derived traces.
        self.parse_report = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def requests(self) -> Sequence[IORequest]:
        """The underlying request list (treat as read-only)."""
        return self._requests

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self._requests)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._requests[index], name=self._name)
        return self._requests[index]

    def __repr__(self) -> str:
        return f"Trace(name={self._name!r}, n_ops={len(self._requests)})"

    @property
    def max_end(self) -> int:
        """One past the highest sector touched by any request (0 if empty).

        The log-structured translator places its initial write frontier here
        so pre-trace ("unwritten") data can be assumed resident at
        PBA = LBA below it.
        """
        if self._max_end is None:
            _, lba, length = self.as_arrays()
            self._max_end = int((lba + length).max()) if len(lba) else 0
        return self._max_end

    def as_arrays(self):
        """Decompose into ``(is_read, lba, length)`` numpy arrays, cached.

        The arrays are built once per trace and shared by every caller
        (the NoLS batch kernel, the :mod:`repro.analysis.fast` paths), so
        repeated vectorized analyses of one trace pay the Python→numpy
        conversion only once.  The returned arrays are **read-only**
        (``writeable=False``) — they are shared between callers, so a
        mutation would silently corrupt every later analysis.  Copy first
        if you need scratch space.
        """
        if self._arrays is None:
            n = len(self._requests)
            packed = np.fromiter(
                (
                    (r.op is OpType.READ, r.lba, r.length)
                    for r in self._requests
                ),
                dtype=[("is_read", "?"), ("lba", "<i8"), ("length", "<i8")],
                count=n,
            )
            columns = tuple(
                np.ascontiguousarray(packed[field])
                for field in ("is_read", "lba", "length")
            )
            for column in columns:
                column.setflags(write=False)
            self._arrays = columns
        return self._arrays

    def content_key(self) -> str:
        """SHA-256 identity of the replay-relevant content, cached.

        Hashes the name plus the ``(is_read, lba, length)`` columns —
        everything a replay or recorded fragment stream can observe.
        Timestamps are deliberately excluded (no simulator path reads
        them), so e.g. a re-parsed trace with jittered completion stamps
        still shares recorded streams.  Two traces with equal keys produce
        bit-identical replay results under every configuration; the
        :class:`~repro.experiments.sweep.SweepEngine` result table and its
        stream memo key on this, so logically identical traces from
        different load paths (fresh synthesis, compiled-store mmap,
        re-parse) share one recording.
        """
        key = getattr(self, "_content_key", None)
        if key is None:
            import hashlib

            is_read, lba, length = self.as_arrays()
            digest = hashlib.sha256()
            digest.update(f"{self._name}\x00{len(self)}\x00".encode())
            for column in (is_read, lba, length):
                digest.update(np.ascontiguousarray(column).tobytes())
            key = digest.hexdigest()
            self._content_key = key
        return key

    def timestamps(self):
        """The per-request timestamp column as a read-only float64 array."""
        if self._timestamps is None:
            stamps = np.fromiter(
                (r.timestamp for r in self._requests),
                dtype=np.float64,
                count=len(self._requests),
            )
            stamps.setflags(write=False)
            self._timestamps = stamps
        return self._timestamps

    @property
    def read_count(self) -> int:
        return int(np.count_nonzero(self.as_arrays()[0]))

    @property
    def write_count(self) -> int:
        return len(self) - self.read_count

    def filter(self, op: OpType) -> "Trace":
        """Return a new trace containing only requests of direction ``op``."""
        return Trace(
            (r for r in self._requests if r.op is op),
            name=f"{self._name}.{op.value}",
        )

    def renamed(self, name: str) -> "Trace":
        """Return the same request sequence under a different name."""
        return Trace(self._requests, name=name)

    def concat(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """Concatenate two traces, offsetting the second trace's timestamps.

        The second trace's timestamps are shifted so they start right after
        this trace's last timestamp, preserving monotonicity.
        """
        base = self._requests[-1].timestamp if self._requests else 0.0
        first_other = other._requests[0].timestamp if other._requests else 0.0
        shift = base - first_other + 1e-6 if other._requests else 0.0
        shifted = [
            IORequest(r.timestamp + shift, r.op, r.lba, r.length)
            for r in other._requests
        ]
        return Trace(self._requests + shifted, name=name or self._name)
