"""IORequest / OpType tests."""

import pytest

from repro.trace.record import IORequest, OpType


class TestOpTypeParse:
    @pytest.mark.parametrize("token", ["R", "r", "Read", "READ", "rd", "0"])
    def test_read_tokens(self, token):
        assert OpType.parse(token) is OpType.READ

    @pytest.mark.parametrize("token", ["W", "w", "Write", "WRITE", "wr", "1"])
    def test_write_tokens(self, token):
        assert OpType.parse(token) is OpType.WRITE

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unrecognized"):
            OpType.parse("trim")

    def test_flags(self):
        assert OpType.READ.is_read and not OpType.WRITE.is_read


class TestIORequest:
    def test_end(self):
        assert IORequest.read(10, 5).end == 15

    def test_shorthand_constructors(self):
        r = IORequest.read(1, 2, timestamp=3.0)
        w = IORequest.write(1, 2)
        assert r.is_read and r.timestamp == 3.0
        assert w.is_write and w.timestamp == 0.0

    def test_immutable(self):
        request = IORequest.read(0, 1)
        with pytest.raises(AttributeError):
            request.lba = 5

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            IORequest.read(0, 0)

    def test_rejects_negative_lba(self):
        with pytest.raises(ValueError):
            IORequest.read(-1, 1)

    def test_rejects_bool_addresses(self):
        with pytest.raises(TypeError):
            IORequest(0.0, OpType.READ, True, 1)
        with pytest.raises(TypeError):
            IORequest(0.0, OpType.READ, 0, True)

    def test_rejects_non_optype(self):
        with pytest.raises(TypeError):
            IORequest(0.0, "R", 0, 1)

    def test_equality(self):
        assert IORequest.read(0, 1) == IORequest.read(0, 1)
        assert IORequest.read(0, 1) != IORequest.write(0, 1)
