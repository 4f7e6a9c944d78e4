"""The mutable extent record used internally by :class:`ExtentMap`."""

from __future__ import annotations


class Extent:
    """A mapped run: ``length`` logical sectors starting at ``lba`` stored
    physically at ``pba``.

    Mutable and slotted: the extent map trims extents in place when writes
    partially overlap them, which avoids churning allocations on the hot
    path.
    """

    __slots__ = ("lba", "pba", "length")

    def __init__(self, lba: int, pba: int, length: int) -> None:
        if length <= 0:
            raise ValueError(f"extent length must be > 0, got {length}")
        if lba < 0 or pba < 0:
            raise ValueError(f"extent addresses must be >= 0, got lba={lba} pba={pba}")
        self.lba = lba
        self.pba = pba
        self.length = length

    @property
    def lba_end(self) -> int:
        return self.lba + self.length

    @property
    def pba_end(self) -> int:
        return self.pba + self.length

    def pba_for(self, lba: int) -> int:
        """Physical sector holding logical sector ``lba`` (must be inside)."""
        if not self.lba <= lba < self.lba_end:
            raise ValueError(f"lba {lba} outside extent [{self.lba}, {self.lba_end})")
        return self.pba + (lba - self.lba)

    def trim_front(self, n: int) -> None:
        """Drop the first ``n`` sectors of the extent."""
        if not 0 < n < self.length:
            raise ValueError(f"trim_front n must be in (0, {self.length}), got {n}")
        self.lba += n
        self.pba += n
        self.length -= n

    def trim_back(self, n: int) -> None:
        """Drop the last ``n`` sectors of the extent."""
        if not 0 < n < self.length:
            raise ValueError(f"trim_back n must be in (0, {self.length}), got {n}")
        self.length -= n
