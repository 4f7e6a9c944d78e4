"""Fig. 6 — worked example of opportunistic defragmentation.

Replays the paper's six-LBA toy scenario step by step: updates fragment a
contiguous range, a read pays three extra seeks, defragmentation rewrites
the range at the log head, the re-read is seek-free, and a later read of
an adjacent range pays an extra seek because the defrag moved its data.
"""

from __future__ import annotations

from repro.core.defrag import OpportunisticDefrag
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest

UNIT = 8  # one toy "LBA" = 8 sectors (4 KiB)


def _scenario(defrag: bool) -> dict:
    translator = LogStructuredTranslator(
        frontier_base=16 * UNIT,
        defrag=OpportunisticDefrag() if defrag else None,
    )
    steps = {}
    translator.submit(IORequest.write(3 * UNIT, UNIT))              # (A) Wr 3
    translator.submit(IORequest.write(5 * UNIT, UNIT))              # (B) Wr 5
    o_c = translator.submit(IORequest.read(2 * UNIT, 4 * UNIT))     # (C) Rd 2-5
    steps["rd_2_5_first"] = {
        "fragments": o_c.fragments,
        "read_seeks": o_c.read_seeks,
        "defrag_write_seeks": o_c.defrag_write_seeks,
    }
    o_e = translator.submit(IORequest.read(2 * UNIT, 4 * UNIT))     # (E) Rd 2-5 again
    steps["rd_2_5_again"] = {"fragments": o_e.fragments, "read_seeks": o_e.read_seeks}
    o_f = translator.submit(IORequest.read(1 * UNIT, 2 * UNIT))     # (F) Rd 1-2
    steps["rd_1_2"] = {"fragments": o_f.fragments, "read_seeks": o_f.read_seeks}
    return steps


def run(engine) -> dict:
    """Regenerate the Fig. 6 walkthrough (exact scenario: the engine
    is not read).

    Expected, matching the figure: the first read of LBAs 2..5 spans 4
    fragments (3 extra seeks); with defragmentation the re-read costs a
    single seek, while the following read of LBAs 1..2 pays an extra seek
    it would not have paid without defragmentation.
    """
    data = {
        "without_defrag": _scenario(defrag=False),
        "with_defrag": _scenario(defrag=True),
    }
    wo, wd = data["without_defrag"], data["with_defrag"]
    print("Fig. 6 scenario (LBAs 1..6 contiguous; Wr 3; Wr 5; Rd 2-5; Rd 2-5; Rd 1-2)")
    print(f"  without defrag: Rd2-5 fragments={wo['rd_2_5_first']['fragments']} "
          f"seeks={wo['rd_2_5_first']['read_seeks']}; re-read seeks="
          f"{wo['rd_2_5_again']['read_seeks']}; Rd1-2 seeks={wo['rd_1_2']['read_seeks']}")
    print(f"  with defrag:    Rd2-5 fragments={wd['rd_2_5_first']['fragments']} "
          f"seeks={wd['rd_2_5_first']['read_seeks']}; re-read seeks="
          f"{wd['rd_2_5_again']['read_seeks']} (defragmented); "
          f"Rd1-2 seeks={wd['rd_1_2']['read_seeks']} (extra seek from relocation)")
    return data
