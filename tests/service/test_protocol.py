"""Wire-protocol encoding and validation."""

import pytest

from repro.service import protocol


class TestEncoding:
    def test_round_trip(self):
        message = {"id": 3, "op": "query_stats", "world": "w1", "params": {"a": 1}}
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_encoding_is_canonical(self):
        a = protocol.encode_message({"b": 1, "a": 2})
        b = protocol.encode_message({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert b" " not in a

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError):
            protocol.decode_message(b"[1, 2, 3]\n")

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            protocol.decode_message(b"{nope\n")


class TestResponses:
    def test_ok_response_shape(self):
        response = protocol.ok_response(7, {"x": 1})
        assert response == {"id": 7, "ok": True, "result": {"x": 1}}

    def test_error_response_shape(self):
        response = protocol.error_response(None, "boom")
        assert response == {"id": None, "ok": False, "error": "boom"}


def _message(request):
    """The message part of ``envelope_problem``; ``None`` when well-formed."""
    problem = protocol.envelope_problem(request)
    if problem is None:
        return None
    message, code = problem
    assert code is None  # only version problems carry a structured code
    return message


class TestValidation:
    def test_well_formed_world_op(self):
        assert protocol.envelope_problem({"op": "advance", "world": "w"}) is None

    def test_well_formed_frontend_op(self):
        assert protocol.envelope_problem({"op": "ping"}) is None

    def test_missing_op(self):
        assert "missing" in _message({"world": "w"})

    def test_unknown_op(self):
        assert "unknown op" in _message({"op": "frobnicate"})

    def test_world_op_requires_world(self):
        assert "requires" in _message({"op": "query_stats"})

    def test_world_must_be_nonempty_string(self):
        assert _message({"op": "advance", "world": ""}) is not None
        assert _message({"op": "advance", "world": 3}) is not None

    def test_params_must_be_object(self):
        assert "params" in _message({"op": "advance", "world": "w", "params": [1]})

    def test_op_partition_is_total_and_disjoint(self):
        assert not (protocol.WORLD_OPS & protocol.FRONTEND_OPS)
        assert protocol.READ_OPS <= protocol.WORLD_OPS
