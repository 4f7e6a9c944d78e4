"""Opportunistic defragmentation (paper §IV-A, Algorithm 1).

When a read is fragmented, the translation layer has already paid the seeks
to assemble the data in order — writing it back contiguously at the log
head costs only one extra seek (to the write frontier) plus transfer, and
makes future reads of the same range seek-free.

The paper notes the technique "does not come for free" and proposes two
throttles, both implemented here:

* ``min_fragments`` (the paper's *N*): only defragment ranges split into at
  least N physical pieces.
* ``min_accesses`` (the paper's *k*): wait until a fragmented range has
  been read k times before rewriting it.

With the defaults (N=2, k=1) the policy is Algorithm 1 verbatim: every
fragmented read triggers a rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.util.bulkstate import int_rows


@dataclass(frozen=True)
class DefragConfig:
    """Tuning knobs for opportunistic defragmentation.

    Attributes:
        min_fragments: Rewrite only ranges resolved into at least this many
            physical pieces (paper's N; >= 2 since 1 piece is unfragmented).
        min_accesses: Rewrite only after this many fragmented reads of the
            same range (paper's k; >= 1).
    """

    min_fragments: int = 2
    min_accesses: int = 1

    def __post_init__(self) -> None:
        # 1.5 would mean ">= 2" here but 1 to the compiled kernel's int64.
        for name, least in (("min_fragments", 2), ("min_accesses", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


class OpportunisticDefrag:
    """Decision state for Algorithm 1 with the §IV-A throttles.

    The translator calls :meth:`should_defragment` after serving each
    fragmented read; a True return obliges the caller to rewrite the range
    at the log head and then call :meth:`note_defragmented`.
    """

    def __init__(self, config: Optional[DefragConfig] = None) -> None:
        # A `config=DefragConfig()` default would be evaluated once at def
        # time and shared by every instance; build one per instance.
        config = DefragConfig() if config is None else config
        self.config = config
        self._access_counts: Dict[Tuple[int, int], int] = {}

    def should_defragment(self, lba: int, length: int, fragments: int) -> bool:
        """Decide whether the just-served fragmented read warrants a rewrite.

        Args:
            lba, length: The logical range that was read.
            fragments: Its dynamic fragmentation (physical piece count).
        """
        if fragments < self.config.min_fragments:
            return False
        if self.config.min_accesses == 1:
            return True
        key = (lba, length)
        count = self._access_counts.get(key, 0) + 1
        if count >= self.config.min_accesses:
            # The rewrite is about to happen; drop the counter so a future
            # re-fragmentation of the range starts counting afresh.
            self._access_counts.pop(key, None)
            return True
        self._access_counts[key] = count
        return False

    def note_defragmented(self, lba: int, length: int) -> None:
        """Forget access history for a range that was just rewritten."""
        self._access_counts.pop((lba, length), None)

    def state_dict(self) -> dict:
        """Mutable state (checkpoint snapshot): the access counters as an
        ``(n, 3)`` int64 ``[lba, length, count]`` array in insertion order.

        Configuration is *not* included — restore builds a policy from the
        same :class:`DefragConfig` and loads this state into it.
        """
        return {
            "access_counts": int_rows(
                [(*key, count) for key, count in self._access_counts.items()], 3
            )
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (replaces current state)."""
        self._access_counts = {
            (lba, length): count
            for lba, length, count in int_rows(state["access_counts"], 3).tolist()
        }
