"""The single I/O record type shared across the simulator.

All addresses and lengths are in 512-byte sectors (see
:mod:`repro.util.units`); timestamps are seconds since the start of the
trace.  The record is immutable so that traces can be shared freely between
baseline and log-structured replays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpType(enum.Enum):
    """Block operation direction.

    The paper classifies a seek as a *read seek* or a *write seek* according
    to the direction of the second of the two operations involved, so the
    direction travels with every request.
    """

    READ = "R"
    WRITE = "W"

    @classmethod
    def parse(cls, token: str) -> "OpType":
        """Parse the direction tokens found in real trace files.

        Accepts the MSR ``Read``/``Write`` words, single letters, and the
        lower-case variants CloudPhysics-style dumps use.

        >>> OpType.parse("Read") is OpType.READ
        True
        >>> OpType.parse("w") is OpType.WRITE
        True
        """
        normalized = token.strip().lower()
        if normalized in ("r", "read", "rd", "0"):
            return cls.READ
        if normalized in ("w", "write", "wr", "1"):
            return cls.WRITE
        raise ValueError(f"unrecognized operation token: {token!r}")

    @property
    def is_read(self) -> bool:
        return self is OpType.READ


@dataclass(frozen=True)
class IORequest:
    """One block I/O operation.

    Attributes:
        timestamp: Seconds since the start of the trace (monotone
            non-decreasing within a trace; purely informational for the seek
            model, which is ordering-based).
        op: Operation direction.
        lba: First logical sector addressed.
        length: Number of sectors addressed; must be positive.
    """

    timestamp: float
    op: OpType
    lba: int
    length: int

    def __post_init__(self) -> None:
        if isinstance(self.lba, bool) or not isinstance(self.lba, int):
            raise TypeError(f"lba must be int, got {type(self.lba).__name__}")
        if isinstance(self.length, bool) or not isinstance(self.length, int):
            raise TypeError(f"length must be int, got {type(self.length).__name__}")
        if self.lba < 0:
            raise ValueError(f"lba must be >= 0, got {self.lba}")
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if not isinstance(self.op, OpType):
            raise TypeError(f"op must be OpType, got {type(self.op).__name__}")

    @property
    def end(self) -> int:
        """One past the last sector addressed (exclusive end)."""
        return self.lba + self.length

    @property
    def is_read(self) -> bool:
        return self.op is OpType.READ

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE

    @staticmethod
    def read(lba: int, length: int, timestamp: float = 0.0) -> "IORequest":
        """Shorthand constructor used heavily in tests and examples."""
        return IORequest(timestamp=timestamp, op=OpType.READ, lba=lba, length=length)

    @staticmethod
    def write(lba: int, length: int, timestamp: float = 0.0) -> "IORequest":
        """Shorthand constructor used heavily in tests and examples."""
        return IORequest(timestamp=timestamp, op=OpType.WRITE, lba=lba, length=length)
