"""Misdelivered streams: duplicated and held-back batches, generated."""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LS
from repro.service.session import ReplaySession, SequenceGapError
from tests.service.helpers import (CAPACITY, batches, make_columns, reference_queries,
                                   session_queries)

_plans = st.lists(
    st.tuples(st.integers(1, 60), st.sampled_from(("send", "duplicate", "hold"))),
    min_size=1,
    max_size=15,
)


@given(plan=_plans)
@settings(max_examples=40, deadline=None)
def test_misdelivered_stream_converges_to_clean_state(plan):
    """Duplicates ack as duplicates, gaps defer and retry: the final state
    must equal the clean in-order stream's exactly.  ``hold`` delivers a
    batch one hop late, after its successor (which therefore hits a gap)."""
    sizes = [ops for ops, _ in plan]
    columns = make_columns(sum(sizes), seed=31)
    with tempfile.TemporaryDirectory() as tmp:
        expected = reference_queries(f"{tmp}/ref", LS, columns, batch_ops=sizes)
        session = ReplaySession.create("t", f"{tmp}/chaos", LS, CAPACITY)
        deferred = []

        def deliver(batch):
            try:
                session.apply_batch(*batch)
            except SequenceGapError:
                deferred.append(batch)

        held = None
        for batch, (_, action) in zip(batches(columns, sizes), plan):
            if action == "hold" and held is None:
                held = batch
                continue
            deliver(batch)
            if action == "duplicate":
                deliver(batch)
            if held is not None:
                deliver(held)
                held = None
        if held is not None:
            deliver(held)
        for batch in sorted(deferred, key=lambda b: b[0]):
            session.apply_batch(*batch)
        assert session.applied_seq == len(plan)
        assert session_queries(session) == expected
        session.close()
