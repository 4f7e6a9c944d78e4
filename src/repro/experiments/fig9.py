"""Fig. 9 — worked example of look-ahead-behind prefetching.

Replays the paper's toy scenario: LBAs 3, 2, 4 are updated out of order;
reading LBAs 1..5 costs five seeks without prefetching, but three with
look-ahead-behind enabled (LBAs 3 and 4 are prefetched while reading 2).
"""

from __future__ import annotations

from repro.core.config import LS, TechniqueConfig
from repro.core.prefetch import PrefetchConfig
from repro.trace.record import IORequest
from repro.trace.trace import Trace

UNIT = 8  # one toy "LBA" = 8 sectors (4 KiB)

WITH_PREFETCH = TechniqueConfig(
    name="LS+prefetch",
    prefetch=PrefetchConfig(behind_kib=4.0, ahead_kib=4.0, buffer_mib=1.0),
)


def _scenario_trace() -> Trace:
    """Wr 3; Wr 2; Wr 4; Rd 1-5 over an initially contiguous LBA range."""
    requests = [IORequest.write(unit * UNIT, UNIT) for unit in (3, 2, 4)]  # tA..tC
    requests.append(IORequest.read(1 * UNIT, 5 * UNIT))                    # tD / tD'
    return Trace(requests, name="fig9")


def _scenario(stats) -> dict:
    return {
        "fragments": stats.read_fragments,
        "read_seeks": stats.read_seeks,
        "buffer_fragment_hits": stats.buffer_fragment_hits,
    }


def run(engine) -> dict:
    """Regenerate the Fig. 9 walkthrough (exact scenario; the engine
    only answers its two points).

    Expected, matching the figure: without prefetching the read of LBAs
    1..5 pays 5 seeks; with look-ahead-behind it pays 3, with LBAs 3 and 4
    served from the prefetch buffer.
    """
    without, with_prefetch = engine.sweep(_scenario_trace(), [LS, WITH_PREFETCH])
    data = {
        "without_prefetch": _scenario(without.stats),
        "with_prefetch": _scenario(with_prefetch.stats),
    }
    wo, wp = data["without_prefetch"], data["with_prefetch"]
    print("Fig. 9 scenario (LBAs 1..6 contiguous; Wr 3; Wr 2; Wr 4; Rd 1-5)")
    print(f"  without prefetch: fragments={wo['fragments']} seeks={wo['read_seeks']}")
    print(f"  with prefetch:    fragments={wp['fragments']} seeks={wp['read_seeks']} "
          f"(buffer hits={wp['buffer_fragment_hits']})")
    return data
