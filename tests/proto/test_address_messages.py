"""Tests for cross-network addressing and interop protocol messages."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.proto import (
    Attestation,
    AuthInfo,
    CrossNetworkAddress,
    NetworkAddressMsg,
    NetworkConfigMsg,
    NetworkQuery,
    OrganizationConfigMsg,
    PeerConfigMsg,
    ProofMetadata,
    QueryResponse,
    RelayEnvelope,
    VerificationPolicyMsg,
    parse_address,
    MSG_KIND_QUERY_REQUEST,
    PROTOCOL_VERSION,
    STATUS_OK,
)

segment = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_."),
    min_size=1,
    max_size=16,
)


class TestAddress:
    def test_parse_roundtrip(self):
        address = parse_address("stl/main/TradeLensCC/GetBillOfLading")
        assert address == CrossNetworkAddress(
            "stl", "main", "TradeLensCC", "GetBillOfLading"
        )
        assert str(address) == "stl/main/TradeLensCC/GetBillOfLading"

    @pytest.mark.parametrize(
        "bad",
        ["", "a/b/c", "a/b/c/d/e", "a//c/d", "/b/c/d", "a/b/c/"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            parse_address(bad)

    def test_segments_cannot_contain_separator(self):
        with pytest.raises(AddressError):
            CrossNetworkAddress("a/b", "c", "d", "e")

    @given(n=segment, l=segment, c=segment, f=segment)
    def test_roundtrip_property(self, n, l, c, f):
        address = CrossNetworkAddress(n, l, c, f)
        assert parse_address(str(address)) == address

    def test_from_msg(self):
        msg = NetworkAddressMsg(
            network="stl", ledger="main", contract="TradeLensCC", function="GetBillOfLading"
        )
        assert CrossNetworkAddress.from_msg(msg) == parse_address(
            "stl/main/TradeLensCC/GetBillOfLading"
        )

    def test_from_msg_rejects_no_address(self):
        with pytest.raises(AddressError, match="no address"):
            CrossNetworkAddress.from_msg(None)

    @pytest.mark.parametrize("field", ["network", "ledger", "contract", "function"])
    def test_from_msg_rejects_an_empty_segment(self, field):
        msg = NetworkAddressMsg(network="n", ledger="l", contract="c", function="f")
        setattr(msg, field, "")
        with pytest.raises(AddressError, match=f"segment '{field}' must be non-empty"):
            CrossNetworkAddress.from_msg(msg)


class TestInteropMessages:
    def _query(self) -> NetworkQuery:
        return NetworkQuery(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network="stl", ledger="main", contract="cc", function="fn"
            ),
            args=["arg1", "arg2"],
            nonce="nonce-1",
            auth=AuthInfo(
                requesting_network="swt",
                requesting_org="seller-org",
                requestor="seller",
                certificate=b"\x01\x02",
                public_key=b"\x03" * 65,
            ),
            policy=VerificationPolicyMsg(expression="AND(org:a, org:b)"),
            confidential=True,
        )

    def test_query_roundtrip(self):
        query = self._query()
        assert NetworkQuery.decode(query.encode()) == query

    def test_response_roundtrip(self):
        response = QueryResponse(
            version=PROTOCOL_VERSION,
            nonce="nonce-1",
            status=STATUS_OK,
            result_cipher=b"\x99" * 40,
            attestations=[
                Attestation(
                    metadata_cipher=b"\x01",
                    signature=b"\x02",
                    certificate=b"\x03",
                    peer_id="p.o",
                    org="o",
                )
            ],
        )
        assert QueryResponse.decode(response.encode()) == response

    def test_envelope_roundtrip_with_headers(self):
        envelope = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_QUERY_REQUEST,
            request_id="req-1",
            source_network="swt",
            destination_network="stl",
            payload=self._query().encode(),
            headers={"retryable": "false", "trace": "t-1"},
        )
        decoded = RelayEnvelope.decode(envelope.encode())
        assert decoded == envelope
        assert NetworkQuery.decode(decoded.payload) == self._query()

    def test_proof_metadata_roundtrip(self):
        metadata = ProofMetadata(
            address=NetworkAddressMsg(network="stl", ledger="l", contract="c", function="f"),
            args=["a"],
            nonce="n",
            result_hash=b"\x00" * 32,
            peer_id="peer0.org",
            org="org",
            network="stl",
            timestamp=12.5,
            result=b"{\"hash\":\"xx\"}",
        )
        assert ProofMetadata.decode(metadata.encode()) == metadata

    def test_network_config_roundtrip(self):
        config = NetworkConfigMsg(
            network_id="stl",
            platform="fabric",
            organizations=[
                OrganizationConfigMsg(
                    org_id="seller-org",
                    msp_id="seller-orgMSP",
                    root_certificate=b"\xaa" * 10,
                    peers=[
                        PeerConfigMsg(
                            peer_id="peer0.seller-org",
                            org="seller-org",
                            endpoint="sim://stl/peer0",
                            certificate=b"\xbb" * 10,
                        )
                    ],
                )
            ],
            ledgers=["main"],
        )
        assert NetworkConfigMsg.decode(config.encode()) == config

    def test_query_without_optionals_roundtrips(self):
        query = NetworkQuery(version=1, nonce="n")
        assert NetworkQuery.decode(query.encode()) == query


class TestBatchMessages:
    """The MSG_KIND_BATCH_REQUEST/MSG_KIND_BATCH_RESPONSE envelope pair."""

    def _query(self, nonce: str) -> NetworkQuery:
        return NetworkQuery(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network="stl", ledger="main", contract="cc", function="fn"
            ),
            args=["a", "b"],
            nonce=nonce,
            policy=VerificationPolicyMsg(expression="org:seller-org"),
            confidential=True,
        )

    def test_batch_request_roundtrip(self):
        from repro.proto import BatchQueryRequest

        batch = BatchQueryRequest(
            version=PROTOCOL_VERSION,
            queries=[self._query("n-1"), self._query("n-2")],
        )
        decoded = BatchQueryRequest.decode(batch.encode())
        assert decoded == batch
        assert [q.nonce for q in decoded.queries] == ["n-1", "n-2"]

    def test_batch_response_roundtrip_preserves_order(self):
        from repro.proto import BatchQueryResponse

        batch = BatchQueryResponse(
            version=PROTOCOL_VERSION,
            responses=[
                QueryResponse(version=1, nonce="n-1", status=STATUS_OK),
                QueryResponse(version=1, nonce="n-2", status=2, error="boom"),
            ],
        )
        decoded = BatchQueryResponse.decode(batch.encode())
        assert decoded == batch
        assert [r.nonce for r in decoded.responses] == ["n-1", "n-2"]

    def test_batch_kinds_are_distinct(self):
        from repro.proto import (
            MSG_KIND_BATCH_REQUEST,
            MSG_KIND_BATCH_RESPONSE,
            MSG_KIND_ERROR,
            MSG_KIND_QUERY_RESPONSE,
        )

        kinds = {
            MSG_KIND_QUERY_REQUEST,
            MSG_KIND_QUERY_RESPONSE,
            MSG_KIND_ERROR,
            MSG_KIND_BATCH_REQUEST,
            MSG_KIND_BATCH_RESPONSE,
        }
        assert len(kinds) == 5

    def test_batch_envelope_roundtrip(self):
        from repro.proto import BatchQueryRequest, MSG_KIND_BATCH_REQUEST

        payload = BatchQueryRequest(
            version=PROTOCOL_VERSION, queries=[self._query("n-1")]
        ).encode()
        envelope = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_BATCH_REQUEST,
            request_id="req-1",
            source_network="swt",
            destination_network="stl",
            payload=payload,
        )
        decoded = RelayEnvelope.decode(envelope.encode())
        assert decoded.kind == MSG_KIND_BATCH_REQUEST
        assert BatchQueryRequest.decode(decoded.payload).queries[0].nonce == "n-1"
