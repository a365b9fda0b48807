"""Transaction-layer PDU wire format."""

import pytest
from hypothesis import given, strategies as st

from wapstack import wtp


def test_invoke_worked_example():
    pdu = wtp.WtpPdu(wtp.PDU_INVOKE, tid=1, tclass=2, payload=b"GET")
    assert wtp.encode_pdu(pdu) == bytes.fromhex("100001") + b"\x02GET"
    # bit 2, a request for a user acknowledgement, is ignored
    assert wtp.decode_pdu(bytes.fromhex("140001") + b"\x02GET") == pdu


def test_ack_worked_example():
    assert wtp.encode_pdu(wtp.WtpPdu(wtp.PDU_ACK, tid=1)) == bytes.fromhex("300001")


@given(tid=st.integers(0, 65535), rid=st.booleans(),
       tclass=st.sampled_from([0, 1, 2]), payload=st.binary(max_size=256))
def test_invoke_round_trip(tid, rid, tclass, payload):
    pdu = wtp.WtpPdu(wtp.PDU_INVOKE, tid, rid, tclass=tclass, payload=payload)
    assert wtp.decode_pdu(wtp.encode_pdu(pdu)) == pdu


@given(tid=st.integers(0, 65535), rid=st.booleans(),
       payload=st.binary(max_size=256))
def test_result_round_trip(tid, rid, payload):
    pdu = wtp.WtpPdu(wtp.PDU_RESULT, tid, rid, payload=payload)
    assert wtp.decode_pdu(wtp.encode_pdu(pdu)) == pdu


@given(tid=st.integers(0, 65535), rid=st.booleans())
def test_ack_round_trip(tid, rid):
    pdu = wtp.WtpPdu(wtp.PDU_ACK, tid, rid)
    assert wtp.decode_pdu(wtp.encode_pdu(pdu)) == pdu


@given(tid=st.integers(0, 65535), reason=st.integers(0, 255))
def test_abort_round_trip(tid, reason):
    pdu = wtp.WtpPdu(wtp.PDU_ABORT, tid, abort_reason=reason)
    assert wtp.decode_pdu(wtp.encode_pdu(pdu)) == pdu


@pytest.mark.parametrize("data", [
    b"",                        # empty
    b"\x10\x00",                # shorter than 3 bytes
    b"\x12\x00\x01",            # reserved bits set
    b"\x50\x00\x01",            # unknown type 5
    b"\x10\x00\x01",            # invoke missing class byte
    b"\x10\x00\x01\x03",        # invoke class 3
    b"\x40\x00\x01",            # abort missing reason
    b"\x40\x00\x01\x01\x02",    # abort too long
    b"\x30\x00\x01x",          # ack with a trailing byte
    b"\x30\x00\x01" + b"x" * 65,  # ack with 65 trailing bytes
])
def test_malformed_pdus_rejected(data):
    with pytest.raises(wtp.MalformedPdu):
        wtp.decode_pdu(data)


def test_encode_validation():
    with pytest.raises(wtp.MalformedPdu):
        wtp.encode_pdu(wtp.WtpPdu(wtp.PDU_INVOKE, 1, tclass=5))
    with pytest.raises(wtp.MalformedPdu):
        wtp.encode_pdu(wtp.WtpPdu(wtp.PDU_ABORT, 1))
    with pytest.raises(wtp.MalformedPdu):
        wtp.encode_pdu(wtp.WtpPdu(wtp.PDU_ACK, 70000))

