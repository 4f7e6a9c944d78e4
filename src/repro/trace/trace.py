"""In-memory trace container.

A :class:`Trace` is a named, ordered block I/O trace held as four parallel
:class:`TraceColumns` — what every vectorized consumer (the batch kernels,
:mod:`repro.analysis.fast`, the writers, the compiled-trace store) reads —
plus the derived quantities the simulator needs up front (maximum LBA, so
the log-structured write frontier can start above it, per the paper's
"unwritten data sits at its LBA" rule).  The per-op reference path reads
:class:`~repro.trace.record.IORequest` objects; a trace built from columns
makes them once, on the first iteration or ``requests`` access.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.trace.record import IORequest, OpType


class TraceColumns:
    """The four parallel column arrays describing a trace.

    All arrays are made read-only on construction and share one length:
    ``timestamp`` (float64 seconds), ``is_read`` (bool), ``lba`` and
    ``length`` (int64 sectors).  This is the unit of exchange between the
    bulk parsers, synthesis, :class:`Trace` and the compiled-trace store.
    """

    __slots__ = ("timestamp", "is_read", "lba", "length")

    def __init__(self, timestamp, is_read, lba, length) -> None:
        timestamp = np.ascontiguousarray(timestamp, dtype=np.float64)
        is_read = np.ascontiguousarray(is_read, dtype=bool)
        lba = np.ascontiguousarray(lba, dtype=np.int64)
        length = np.ascontiguousarray(length, dtype=np.int64)
        n = len(timestamp)
        if not (len(is_read) == len(lba) == len(length) == n):
            raise ValueError(
                "column lengths differ: "
                f"{n}/{len(is_read)}/{len(lba)}/{len(length)}"
            )
        for column in (timestamp, is_read, lba, length):
            column.setflags(write=False)
        self.timestamp = timestamp
        self.is_read = is_read
        self.lba = lba
        self.length = length

    def __len__(self) -> int:
        return len(self.timestamp)

    def select(self, index) -> "TraceColumns":
        """Columns for ``trace[index]``-style slicing."""
        return TraceColumns(
            self.timestamp[index],
            self.is_read[index],
            self.lba[index],
            self.length[index],
        )


class Trace:
    """An ordered block I/O trace.

    Args:
        requests: Requests in replay order, converted to columns once.
            Timestamps are expected to be non-decreasing but this is not
            enforced (some real traces carry completion-time jitter).
        name: Workload identifier used in reports (e.g. ``"w91"``).

    :meth:`from_columns` builds one from columns without any per-op object.
    """

    def __init__(self, requests: Iterable[IORequest], name: str = "trace") -> None:
        requests = list(requests)
        read = OpType.READ
        self._adopt(
            TraceColumns(
                [r.timestamp for r in requests],
                [r.op is read for r in requests],
                [r.lba for r in requests],
                [r.length for r in requests],
            ),
            name,
        )
        self._requests = requests

    @classmethod
    def from_columns(cls, columns: TraceColumns, name: str = "trace") -> "Trace":
        """A trace over ``columns``; its ``IORequest``s are built only if
        a consumer iterates it."""
        trace = cls.__new__(cls)
        trace._adopt(columns, name)
        return trace

    def _adopt(self, columns: TraceColumns, name: str) -> None:
        self.columns = columns
        self._name = name
        self._requests: Optional[List[IORequest]] = None
        self._max_end: Optional[int] = None
        self._content_key: Optional[str] = None
        #: Filled by the parsers in :mod:`repro.trace` with the
        #: :class:`~repro.trace.errors.ParseReport` of the parse that built
        #: this trace; None for synthetic or derived traces.
        self.parse_report = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def requests(self) -> Sequence[IORequest]:
        """The request list (treat as read-only), built once on first use."""
        if self._requests is None:
            cols = self.columns
            read, write = OpType.READ, OpType.WRITE
            # .tolist() converts to Python scalars in C; the comprehension
            # is the one unavoidable per-record pass.
            self._requests = [
                IORequest(t, read if r else write, a, l)
                for t, r, a, l in zip(
                    cols.timestamp.tolist(),
                    cols.is_read.tolist(),
                    cols.lba.tolist(),
                    cols.length.tolist(),
                )
            ]
        return self._requests

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace.from_columns(self.columns.select(index), name=self._name)
        cols = self.columns
        i = int(index)
        return IORequest(
            timestamp=float(cols.timestamp[i]),
            op=OpType.READ if cols.is_read[i] else OpType.WRITE,
            lba=int(cols.lba[i]),
            length=int(cols.length[i]),
        )

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
        """The ``(is_read, lba, length)`` columns.

        They are shared by every caller (the NoLS batch kernel, the
        :mod:`repro.analysis.fast` paths) and **read-only**
        (``writeable=False``): a mutation would silently corrupt every
        later analysis.  Copy first if you need scratch space.
        """
        cols = self.columns
        return cols.is_read, cols.lba, cols.length

    def content_key(self) -> str:
        """SHA-256 identity of the replay-relevant content, cached.

        Hashes the name plus the ``(is_read, lba, length)`` columns —
        everything a replay or recorded fragment stream can observe.
        Timestamps are deliberately excluded (no simulator path reads
        them), so e.g. a re-parsed trace with jittered completion stamps
        still shares recorded streams.  Two traces with equal keys produce
        bit-identical replay results under every configuration; the
        :class:`~repro.experiments.sweep.SweepEngine` result table keys on
        this, so logically identical traces from different load paths
        (fresh synthesis, compiled-store mmap, re-parse) share one row.
        """
        if self._content_key is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(f"{self._name}\x00{len(self)}\x00".encode())
            for column in self.as_arrays():
                digest.update(column.tobytes())
            self._content_key = digest.hexdigest()
        return self._content_key

    def timestamps(self):
        """The per-request timestamp column as a read-only float64 array."""
        return self.columns.timestamp

    @property
    def read_count(self) -> int:
        return int(np.count_nonzero(self.columns.is_read))

    @property
    def write_count(self) -> int:
        return len(self) - self.read_count
