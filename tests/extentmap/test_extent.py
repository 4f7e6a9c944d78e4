"""Extent record tests."""

import pytest

from repro.extentmap.extent import Extent


class TestExtentBasics:
    def test_ends(self):
        e = Extent(lba=10, pba=100, length=5)
        assert e.lba_end == 15
        assert e.pba_end == 105

    def test_pba_for(self):
        e = Extent(10, 100, 5)
        assert e.pba_for(10) == 100
        assert e.pba_for(14) == 104

    def test_pba_for_outside(self):
        e = Extent(10, 100, 5)
        with pytest.raises(ValueError):
            e.pba_for(15)
        with pytest.raises(ValueError):
            e.pba_for(9)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Extent(0, 0, 0)
        with pytest.raises(ValueError):
            Extent(-1, 0, 1)
        with pytest.raises(ValueError):
            Extent(0, -1, 1)


class TestTrim:
    def test_trim_front(self):
        e = Extent(10, 100, 5)
        e.trim_front(2)
        assert (e.lba, e.pba, e.length) == (12, 102, 3)

    def test_trim_back(self):
        e = Extent(10, 100, 5)
        e.trim_back(2)
        assert (e.lba, e.pba, e.length) == (10, 100, 3)

    def test_trim_front_bounds(self):
        e = Extent(0, 0, 3)
        with pytest.raises(ValueError):
            e.trim_front(0)
        with pytest.raises(ValueError):
            e.trim_front(3)

    def test_trim_back_bounds(self):
        e = Extent(0, 0, 3)
        with pytest.raises(ValueError):
            e.trim_back(3)
