"""Property-based half of the differential oracle.

Hypothesis builds arbitrary small traces over a compact LBA space (so
overlaps, rewrites and hole/mapped boundaries occur constantly) and the
oracle demands the batch kernels reproduce the reference replay exactly.
Shrinking then hands back a minimal counterexample trace, which is how
kernel bugs in chunk stitching or piece merging would surface here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ALL_CONFIGS
from repro.trace.record import IORequest
from repro.trace.trace import Trace

from tests.differential.oracle import assert_batch_matches_reference

# A tight LBA space maximizes extent-map churn per op: most writes
# overlap earlier ones and most reads straddle holes and log extents.
_LBA_SPACE = 256
_MAX_LENGTH = 24

_requests = st.lists(
    st.builds(
        lambda is_read, lba, length: (
            IORequest.read(lba, length) if is_read else IORequest.write(lba, length)
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=_LBA_SPACE - _MAX_LENGTH),
        st.integers(min_value=1, max_value=_MAX_LENGTH),
    ),
    max_size=120,
)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
@given(requests=_requests)
@settings(max_examples=40, deadline=None)
def test_random_traces_match(config, requests):
    assert_batch_matches_reference(Trace(requests, name="hypothesis"), config)
