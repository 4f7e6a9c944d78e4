"""Mixture synthesis: determinism, exact counts, disjoint regions, riffle shape."""

import hashlib

import numpy as np
import pytest

from repro.load.mixture import PRESET_MIXTURES, build_mixture, preset

TWO = (("hm_1", 0.7), ("usr_1", 0.3))


def test_same_arguments_same_columns():
    a = build_mixture(TWO, 20_000, seed=11)
    b = build_mixture(TWO, 20_000, seed=11)
    for left, right in zip(a[:3], b[:3]):
        np.testing.assert_array_equal(left, right)
    assert a[3] == b[3]


def test_seed_changes_the_stream():
    a = build_mixture(TWO, 20_000, seed=1)
    b = build_mixture(TWO, 20_000, seed=2)
    assert not np.array_equal(a[1], b[1])


def test_components_occupy_disjoint_lba_regions():
    is_read, lba, length, capacity = build_mixture(TWO, 20_000, seed=3)
    # Component 0 was stacked first: its region starts at LBA 0, and the
    # second component's region starts at component 0's max_end.  Every
    # op must land inside the declared capacity, and both regions must
    # actually be populated.
    solo = build_mixture(TWO[:1], 14_000, seed=3)
    boundary = solo[3]
    assert 0 < boundary < capacity
    assert int(lba.min()) >= 0
    assert int((lba + length).max()) <= capacity
    below = int((lba < boundary).sum())
    above = int((lba >= boundary).sum())
    assert below > 0 and above > 0
    # Weights steer the split: the 0.7 component contributes more ops.
    assert below > above


@pytest.mark.parametrize("name", sorted(PRESET_MIXTURES))
@pytest.mark.parametrize("total", (1, 2, 3, 7, 997, 6_000, 99_999))
def test_mixture_has_exactly_the_requested_ops(name, total):
    # Rounded per-component shares summed to 100 000 for media_scan at
    # 99 999, 996 at 997 and 3 for user_heavy at 1.
    is_read, lba, length, capacity = build_mixture(preset(name), total, seed=3)
    assert len(is_read) == len(lba) == len(length) == total
    assert int(lba.min()) >= 0 and int((lba + length).max()) <= capacity


def test_component_with_a_zero_share_drops_out_of_the_capacity():
    lone = build_mixture(preset("user_heavy"), 1, seed=3)
    solo = build_mixture(preset("user_heavy")[:1], 1, seed=3)
    assert lone[3] == solo[3]
    np.testing.assert_array_equal(lone[1], solo[1])


@pytest.mark.parametrize(
    "name, total, seed, digest",
    [  # taken at the parent commit, whose rounding was already exact here
        ("user_heavy", 6_000, 3, "4fa40ee10a9d1172e8c254269253a848282c4910728239b6ac1cd6964fd2c856"),
        ("read_hot", 997, 5, "ffac8bfefa9c4a479de0901f10ec7e5b95abc26346b01fcc951081c86d56fa5a"),
    ],
)
def test_sizes_that_were_already_exact_keep_their_bytes(name, total, seed, digest):
    *columns, capacity = build_mixture(preset(name), total, seed=seed)
    sha = hashlib.sha256()
    for column in columns:
        sha.update(np.ascontiguousarray(column).tobytes())
    sha.update(str(capacity).encode())
    assert sha.hexdigest() == digest


def test_riffle_leads_with_the_first_component():
    _, lba, _, _ = build_mixture(TWO, 20_000, seed=3, run_ops=512)
    boundary = build_mixture(TWO[:1], 14_000, seed=3)[3]
    assert (lba[:512] < boundary).all()


def test_single_component_passes_through():
    mix = build_mixture((("hm_1", 1.0),), 5_000, seed=9)
    solo = build_mixture((("hm_1", 0.25),), 5_000, seed=9)
    np.testing.assert_array_equal(mix[1], solo[1])


def test_input_validation():
    with pytest.raises(ValueError, match="at least one"):
        build_mixture((), 1000)
    with pytest.raises(ValueError, match="positive"):
        build_mixture(TWO, 0)
    with pytest.raises(ValueError, match="weights"):
        build_mixture((("hm_1", 0.0),), 1000)


def test_presets_are_resolvable():
    for name in PRESET_MIXTURES:
        components = preset(name)
        assert components and all(w > 0 for _, w in components)
        build_mixture(components, 2_000, seed=0)
    with pytest.raises(KeyError, match="valid"):
        preset("nope")
