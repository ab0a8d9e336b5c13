"""Unit tests for the platform interop ports and miscellaneous interop glue."""

from __future__ import annotations

import pytest

from repro.errors import AccessDeniedError, ConfigurationError, PolicyError
from repro.fabric.identity import Organization
from repro.interop.contracts.ports import InteropPort
from repro.proto.messages import AuthInfo, NetworkConfigMsg, OrganizationConfigMsg


@pytest.fixture()
def foreign_org():
    return Organization("foreign-org", network="foreign-net")


@pytest.fixture()
def foreign_config(foreign_org):
    return NetworkConfigMsg(
        network_id="foreign-net",
        platform="fabric",
        organizations=[
            OrganizationConfigMsg(
                org_id="foreign-org",
                msp_id="foreign-orgMSP",
                root_certificate=foreign_org.msp.root_certificate.to_bytes(),
            )
        ],
    )


def requestor(member, network="foreign-net", org="foreign-org") -> AuthInfo:
    return AuthInfo(
        requesting_network=network,
        requesting_org=org,
        requestor=member.name if member else "",
        certificate=member.certificate.to_bytes() if member else b"",
    )


@pytest.fixture()
def port(foreign_config):
    port = InteropPort("local-net")
    port.record_network_config(foreign_config)
    return port


class TestPortConfiguration:
    def test_record_and_get(self, port, foreign_config):
        assert port.get_network_config("foreign-net") == foreign_config

    def test_missing_config(self, port):
        with pytest.raises(ConfigurationError):
            port.get_network_config("atlantis")

    def test_empty_network_id_rejected(self, port):
        with pytest.raises(ConfigurationError):
            port.record_network_config(NetworkConfigMsg())

    def test_verification_policy_roundtrip(self, port):
        port.set_verification_policy("foreign-net", "org:foreign-org")
        assert port.get_verification_policy("foreign-net") == "org:foreign-org"

    def test_malformed_policy_rejected(self, port):
        with pytest.raises(PolicyError):
            port.set_verification_policy("foreign-net", "NOT A POLICY (")

    def test_missing_policy(self, port):
        with pytest.raises(ConfigurationError):
            port.get_verification_policy("foreign-net")


class TestPortExposureControl:
    def test_rule_lifecycle(self, port):
        port.add_access_rule("foreign-net", "foreign-org", "cc", "fn")
        assert ("foreign-net", "foreign-org", "cc", "fn") in port.list_access_rules()
        port.remove_access_rule("foreign-net", "foreign-org", "cc", "fn")
        assert not port.list_access_rules()

    def test_check_access_happy_path(self, port, foreign_org):
        member = foreign_org.enroll("app2", role="client")
        port.add_access_rule("foreign-net", "foreign-org", "cc", "fn")
        port.check_access(requestor(member), "cc", "fn")

    def test_check_access_wildcard_org(self, port, foreign_org):
        member = foreign_org.enroll("app3", role="client")
        port.add_access_rule("foreign-net", "*", "cc", "fn")
        port.check_access(requestor(member), "cc", "fn")

    def test_check_access_wildcard_function(self, port, foreign_org):
        member = foreign_org.enroll("app4", role="client")
        port.add_access_rule("foreign-net", "foreign-org", "cc", "*")
        port.check_access(requestor(member), "cc", "other")

    def test_no_rule_denied(self, port, foreign_org):
        member = foreign_org.enroll("app5", role="client")
        with pytest.raises(AccessDeniedError, match="no matching access rule"):
            port.check_access(requestor(member), "cc", "fn")

    def test_missing_creator_denied(self, port):
        with pytest.raises(AccessDeniedError, match="no creator"):
            port.check_access(requestor(None), "cc", "fn")

    def test_org_mismatch_denied(self, port, foreign_org):
        member = foreign_org.enroll("app6", role="client")
        port.add_access_rule("foreign-net", "other-org", "cc", "fn")
        with pytest.raises(AccessDeniedError, match="belongs to org"):
            port.check_access(requestor(member, org="other-org"), "cc", "fn")

    def test_unknown_requesting_network_denied(self, port, foreign_org):
        member = foreign_org.enroll("app7", role="client")
        port.add_access_rule("ghost-net", "foreign-org", "cc", "fn")
        with pytest.raises(AccessDeniedError):
            port.check_access(requestor(member, network="ghost-net"), "cc", "fn")


class TestEncodingUtils:
    def test_canonical_json_is_sorted_and_compact(self):
        from repro.utils.encoding import canonical_json, from_canonical_json

        data = {"b": 1, "a": [2, {"z": 3, "y": 4}]}
        encoded = canonical_json(data)
        assert encoded == b'{"a":[2,{"y":4,"z":3}],"b":1}'
        assert from_canonical_json(encoded) == data

    def test_canonical_json_rejects_unserializable(self):
        from repro.utils.encoding import canonical_json

        with pytest.raises(TypeError):
            canonical_json({"key": object()})

    def test_hex_roundtrip(self):
        from repro.utils.encoding import from_hex, to_hex

        assert from_hex(to_hex(b"\x00\xff")) == b"\x00\xff"

    def test_utf8(self):
        from repro.utils.encoding import utf8

        assert utf8("héllo") == "héllo".encode("utf-8")
