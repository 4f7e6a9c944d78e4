"""The frozen serve ledger still drives a session across an interval save."""

import sys
from dataclasses import asdict
from pathlib import Path

sys.path += [str(Path(__file__).resolve().parent.parent / d) for d in ("bench", "src")]

import serve_ledger  # noqa: E402
from harness import Ledger  # noqa: E402
from repro.core.batch import IncrementalBatchReplay  # noqa: E402
from repro.core.config import LS, build_translator_for_base  # noqa: E402
from tests.service.helpers import batches, make_columns  # noqa: E402


def test_spans_nest_and_stats_match_offline_across_a_background_save(tmp_path):
    capacity, ledger = 1 << 20, Ledger("serve_write_churn")
    columns = make_columns(60_000, capacity, seed=4)
    session = serve_ledger._session(tmp_path, capacity, ledger)
    for batch in batches(columns, 1000):
        with ledger.span("service.session"):
            session.apply_batch(*batch)
    session.close()
    assert session.query("health")["checkpoints"] == 3  # zero, one interval, close
    for span in ledger.spans:
        parent = ledger.spans[span["parent"]] if span["parent"] is not None else span
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    offline = IncrementalBatchReplay(build_translator_for_base(capacity, LS, "array"))
    offline.feed_arrays(*columns)
    assert session.query("stats") == asdict(offline.stats())
