"""Deterministic random-number plumbing for workload synthesis.

Reproducibility rule: every synthetic trace is a pure function of its
:class:`~repro.workloads.spec.WorkloadSpec` and a single integer seed.
Sub-streams (one per access pattern) are derived deterministically so that
adding a pattern does not perturb the randomness of the others.
"""

from __future__ import annotations

import hashlib
import random


class SeedSequenceFactory:
    """Derive independent child seeds from a root seed and string labels.

    The derivation hashes ``(root_seed, label)`` with SHA-256, so children
    are stable across Python versions and insertion orders (unlike
    ``random.Random(root).randrange`` chains, which depend on call order).

    >>> f = SeedSequenceFactory(42)
    >>> a, b = f.seed_for("writes"), f.seed_for("reads")
    >>> a == f.seed_for("writes") and a != b
    True
    """

    def __init__(self, root_seed: int) -> None:
        self._root_seed = int(root_seed)

    def seed_for(self, label: str) -> int:
        """Return a 64-bit seed deterministically derived from ``label``."""
        digest = hashlib.sha256(f"{self._root_seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def rng_for(self, label: str) -> random.Random:
        """Return a fresh :class:`random.Random` seeded for ``label``."""
        return random.Random(self.seed_for(label))

