"""``src/repro`` stays within the physical-line budget ``make loc`` holds.

ROADMAP aim 2 asks for the same numbers from less code: a PR that shrinks
``src/repro`` lowers ``LOC_BUDGET`` in the Makefile to what it reached, and
none raises it.  ``tests/`` and the option/name surface ratchet likewise.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def loc(*args):
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "loc.py"), *args],
        capture_output=True, text=True,
    )


def test_src_is_within_the_makefile_budget():
    budget = re.search(r"^LOC_BUDGET = (\d+)$", (REPO / "Makefile").read_text(), re.M)
    assert int(budget[1]) <= 15918  # what the last PR to shrink src/repro reached
    done = loc("--max-physical", budget[1])
    assert done.returncode == 0, done.stderr


def test_over_budget_exits_nonzero_and_says_by_how_much():
    done = loc("--max-physical", "1000")
    assert done.returncode == 1
    assert re.search(r"over the budget of 1000 by \d+", done.stderr)
    assert "src/repro total" in done.stdout
    assert re.search(r"^bench/\s+\d+\s+\d+", done.stdout, re.M)
    # The other half of the target ("tests/ not growing to compensate") and
    # the surface that lines do not measure (ROADMAP item 5) ratchet the same
    # way: each literal is what the last PR to lower it reached.
    for row, ceiling in (
        (r"tests/\s+\d+", 14334),  # ROADMAP's ceiling for the round: 15 399
        (r"src/repro add_argument\( calls", 23),
        (r"src/repro environment variables read", 1),
        (r"src/repro __all__ names", 46),
        (r"src/repro settable values", 214),
    ):
        assert int(re.search(rf"^{row}\s+(\d+)\b", done.stdout, re.M)[1]) <= ceiling, row
