"""Seek-counting disk head model — the paper's §II metric, verbatim.

    "We consider a seek to occur if an I/O operation starts at a sector
    other than that immediately following the previous I/O operation, and
    term it a read or write seek according to whether the second of the two
    operations is a read or write."

The head tracks the sector following the last access; every physical access
reports whether it seeked and by how far (signed distance).  The very first
access of a simulation has no predecessor and is, by convention, not a seek
— both translations share this convention so it cancels in the SAF ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AccessEvent:
    """Outcome of positioning the head for one physical access.

    Attributes:
        pba: First physical sector accessed.
        length: Sectors transferred.
        seek: True if the access did not start exactly at the head position.
        distance: Signed seek distance in sectors (0 when ``seek`` is False
            or when there was no previous access).
    """

    pba: int
    length: int
    seek: bool
    distance: int


class DiskHead:
    """Mutable head-position tracker shared by a device's access paths."""

    __slots__ = ("_position",)

    def __init__(self) -> None:
        self._position: Optional[int] = None

    @property
    def position(self) -> Optional[int]:
        """Sector immediately following the last access (None before any)."""
        return self._position

    def access(self, pba: int, length: int) -> AccessEvent:
        """Move the head to serve ``[pba, pba+length)`` and report the seek.

        >>> head = DiskHead()
        >>> head.access(100, 8).seek        # first access: free positioning
        False
        >>> head.access(108, 4).seek        # contiguous: no seek
        False
        >>> evt = head.access(50, 2)        # jump backwards: a seek
        >>> evt.seek, evt.distance
        (True, -62)
        """
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        if pba < 0:
            raise ValueError(f"pba must be >= 0, got {pba}")
        if self._position is None:
            event = AccessEvent(pba=pba, length=length, seek=False, distance=0)
        elif pba == self._position:
            event = AccessEvent(pba=pba, length=length, seek=False, distance=0)
        else:
            event = AccessEvent(
                pba=pba, length=length, seek=True, distance=pba - self._position
            )
        self._position = pba + length
        return event

    def restore_position(self, position: Optional[int]) -> None:
        """Set the head state directly (checkpoint restore).

        ``None`` means "no access yet" — the next access positions freely,
        exactly as on a fresh head.
        """
        if position is not None and position < 0:
            raise ValueError(f"position must be >= 0 or None, got {position}")
        self._position = position
