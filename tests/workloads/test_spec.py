"""WorkloadSpec validation tests."""

import pytest

from repro.workloads.spec import ReadMix, WorkloadSpec, WriteMix


def make_spec(**overrides):
    defaults = dict(
        name="t",
        family="msr",
        total_ops=1000,
        read_fraction=0.5,
        mean_read_kib=16.0,
        mean_write_kib=16.0,
        working_set_mib=64,
        hot_mib=8,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestMixes:
    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError):
            WriteMix(random=-0.1)
        with pytest.raises(ValueError):
            ReadMix(scan=-1.0, random=2.0)

    def test_weights_must_not_all_be_zero(self):
        with pytest.raises(ValueError):
            WriteMix(random=0.0)
        with pytest.raises(ValueError):
            ReadMix(random=0.0)

    def test_as_tuple_order(self):
        assert WriteMix(0.1, 0.2, 0.3, 0.4).as_tuple() == (0.1, 0.2, 0.3, 0.4)
        assert ReadMix(0.1, 0.2, 0.3, 0.4).as_tuple() == (0.1, 0.2, 0.3, 0.4)


class TestSpecValidation:
    def test_valid_spec(self):
        spec = make_spec()
        assert spec.n_reads == 500
        assert spec.n_writes == 500

    def test_family_checked(self):
        with pytest.raises(ValueError, match="family"):
            make_spec(family="other")

    def test_hot_fits_in_working_set(self):
        with pytest.raises(ValueError, match="hot_mib"):
            make_spec(hot_mib=128, working_set_mib=64)

    def test_read_fraction_bounds(self):
        with pytest.raises(ValueError):
            make_spec(read_fraction=1.5)
        assert make_spec(read_fraction=0.0).n_reads == 0
        assert make_spec(read_fraction=1.0).n_writes == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("total_ops", 0),
            ("mean_read_kib", 0),
            ("mean_write_kib", -1),
            ("working_set_mib", 0),
            ("zipf_alpha", -0.5),
            ("hot_targets_max", 0),
            ("overwrite_cluster", 0),
            ("cluster_span_kib", 0),
            ("phases", 0),
            ("write_phase_decay", 0.0),
            ("write_phase_decay", 1.5),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            make_spec(**{field: value})

    def test_rounding_of_counts(self):
        spec = make_spec(total_ops=3, read_fraction=0.5)
        assert spec.n_reads + spec.n_writes == 3
