"""DiskHead seek-definition tests (paper §II, verbatim)."""

import pytest

from repro.disk.head import DiskHead


class TestSeekDefinition:
    def test_first_access_is_not_a_seek(self):
        head = DiskHead()
        event = head.access(1000, 8)
        assert not event.seek and event.distance == 0

    def test_contiguous_access_no_seek(self):
        head = DiskHead()
        head.access(100, 8)
        assert not head.access(108, 4).seek

    def test_forward_jump_is_seek(self):
        head = DiskHead()
        head.access(100, 8)
        event = head.access(200, 1)
        assert event.seek and event.distance == 92

    def test_backward_jump_is_seek(self):
        head = DiskHead()
        head.access(100, 8)
        event = head.access(50, 1)
        assert event.seek and event.distance == -58

    def test_one_sector_back_is_missed_rotation_seek(self):
        # Reading physical N after N+1 is the §IV-B missed-rotation case.
        head = DiskHead()
        head.access(100, 1)
        event = head.access(100, 1)
        assert event.seek and event.distance == -1

    def test_position_tracks_end(self):
        head = DiskHead()
        head.access(10, 5)
        assert head.position == 15


class TestHelpers:
    def test_invalid_access(self):
        head = DiskHead()
        with pytest.raises(ValueError):
            head.access(0, 0)
        with pytest.raises(ValueError):
            head.access(-1, 1)
