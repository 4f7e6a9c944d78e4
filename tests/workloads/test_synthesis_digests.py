"""Pinned synthesis digests: traces are a pure function of (spec, seed, scale).

Each digest is SHA-256 over all four columns — timestamps included — of
the trace the per-``IORequest`` generator produced at the commit before
synthesis went columnar.  They pin the order of every RNG draw, the
sequential float accumulation of the clock and the equivalence of the
cached ``cum_weights`` Zipf draw with ``choices(weights=...)``.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.ablations import _overwrite_workload
from repro.trace.record import IORequest, OpType
from repro.workloads import TABLE1, generator, synthesize_workload

CLEANING = "cleaning-ablation"  # the custom spec of experiments/ablations.py

PINNED = {
    ("hm_1", 42, 0.05): "3f8edb0fdfeb09c31e446bcb0d6db168ecf20f167e2cff222acd504aeb2a794d",
    ("hm_1", 42, 0.4): "e05f7feedf31b83137375cbab632524be92316bd4aadaa34f6c919d4be32fcde",
    ("hm_1", 7, 0.05): "c5e8407f885a7dee56a7dc7b43b581692cb3722eddb92cbbce66c31344e4af3f",
    ("hm_1", 7, 0.4): "7b1736a24d3d40a5a08cb8253141f30698dfd68c3507ce6f36c7006bc5bba3e1",
    ("w84", 42, 0.05): "b54b22f56aa7d018a8b4f128ac62efd4cb53bdc816ede41dd53e148fa6f6c965",
    ("w84", 42, 0.4): "3bfdb323becec479e5e5144c98416ca0002e97189e6364cdecf395e88c0fdcbf",
    ("w84", 7, 0.05): "b55dd0103b2e1f7071beefe2f88aa496d9db535a432565a7982eae57af9f17a2",
    ("w84", 7, 0.4): "4c7d8b75678d57176ed7f20e055352da8b7a85a4e58e049a1e1120b2100e2813",
    ("usr_1", 42, 0.05): "97ed09581096e12283325e595a3e91f9da2d83f8909d451e43421df087b3bd7d",
    ("usr_1", 42, 0.4): "918ada973900ce16b5b797710a5d163d377e4c76cf4c9ceef39808a77070c101",
    ("usr_1", 7, 0.05): "c336e5b19e2c09b87c0a4b3ba447c421eb22dcf8ceed4033f45e36ec059a97ec",
    ("usr_1", 7, 0.4): "6d1881f9cdb5bcc8a1c3219ab351f7e5ea7a7ccc91e2730067d3465e6e5d6b15",
    ("w36", 42, 0.05): "d1ee905849a558d13c789fae30d705901d1bf4e5666c2af72aceb0489646aaa9",
    ("w36", 42, 0.4): "ed24cdc54270343617c207da137af4a825503b7cb65b940c5d2301f4065b2cd6",
    ("w36", 7, 0.05): "5a46d9b588ea9e9dadc2f38b74f741367529f42da5d4a70ff874f435ba2f5b4d",
    ("w36", 7, 0.4): "0606e092d413b0a98c504e750a8981539caf1cf35a7bdeddcf9e9efc9732694c",
    ("cleaning-ablation", 42, 0.05): "407d4081a594d46b5c98e38a2aec28111fec20bb654ec780375022f85f302de4",
    ("cleaning-ablation", 42, 0.4): "a2fc3a040de8479324f2389909bb00b2fb5b7108881de7875bec905580514934",
    ("cleaning-ablation", 7, 0.05): "99bddd797c7ac299a6d0b84b21fb1bdca5802d0a63efbf73040c6d08ce944307",
    ("cleaning-ablation", 7, 0.4): "6d3c30147c11eaafba1db84def2707a4ed7fbbcc124de887c1e68347bdbb8ed5",
}
#: One digest over all 21 Table-I traces' columns, in ``TABLE1`` order: the
#: Zipf tables of 512 to 8 192 targets, cold-region mis-ordered writes
#: without interleaving and every other spec path the pins above miss.
#: Taken from the Python generator that preceded the compiled one.
TABLE1_PINNED = {
    (42, 0.05): "134b4bf49947fe3afebc2a0a4538e2a45bac62c5b7da0bf973a6c6495be46de0",
    (7, 0.4): "9d95630f13954c45b6ee8821814d6c3a7ad1ad28db91b2eaaf563ec364ce91d5",
}


def column_digest(*traces) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        is_read, lba, length = trace.as_arrays()
        for column in (trace.timestamps(), is_read, lba, length):
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,seed,scale", sorted(PINNED), ids=lambda v: str(v))
def test_synthesis_is_bit_identical_to_the_per_request_generator(
    name, seed, scale, request_constructions
):
    if name == CLEANING:
        trace = _overwrite_workload(seed, scale)
    else:
        trace = synthesize_workload(name, seed=seed, scale=scale)
    assert trace.name == name
    assert not request_constructions
    assert column_digest(trace) == PINNED[name, seed, scale]


@pytest.mark.parametrize("seed,scale", sorted(TABLE1_PINNED))
def test_every_table1_archetype_is_bit_identical_to_the_python_generator(seed, scale):
    traces = [synthesize_workload(name, seed=seed, scale=scale) for name in TABLE1]
    assert column_digest(*traces) == TABLE1_PINNED[seed, scale]


@pytest.mark.parametrize("span", [(0, 0), (16, -8), (-8, 8)], ids=str)
def test_bad_span_raises_what_the_request_constructor_raised(span):
    """The per-op range checks are made once on the columns: the first
    offending op raises the ``ValueError`` ``IORequest`` would have."""
    with pytest.raises(ValueError) as expected:
        IORequest(0.0, OpType.WRITE, *span)
    # Later offenders of the other kind must not win over the first.
    lba, length = np.array([0, 8, span[0], -1, 64]), np.array([8, 8, span[1], 8, -1])
    with pytest.raises(ValueError) as raised:
        generator._check_ranges(lba, length)
    assert str(raised.value) == str(expected.value)
