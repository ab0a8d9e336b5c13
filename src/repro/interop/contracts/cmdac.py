"""CMDAC: Configuration Management & Data Acceptance Chaincode.

Two of the paper's three system contracts in one chaincode, as deployed in
the proof-of-concept: "The Configuration Management and Data Acceptance
contracts are combined into a single application chaincode (called CMDAC)
for runtime efficiency, as proof verification depends on foreign
networks' configurations" (§4.3).

Responsibilities:

- **Configuration management**: record foreign networks' identity and
  topology (org MSP root certificates, peer identities) on the local
  ledger, applied through the network's own consensus (§3.3).
- **Verification policies**: record, per foreign network, the criteria a
  proof must satisfy (e.g. ``AND(org:seller-org, org:carrier-org)``).
- **Data acceptance**: validate a proof bundle accompanying remote data
  against the recorded configuration and verification policy before the
  calling application chaincode writes the data to the local ledger.
- **Replay protection**: record consumed nonces on the ledger so a captured
  proof cannot be re-submitted (§4.3).

All functions run as ordinary chaincode: every record lands on the ledger
through endorsement + ordering, which is what makes exposure/acceptance
decisions *consensual* rather than unilateral.
"""

from __future__ import annotations

from repro.crypto.certs import Certificate
from repro.errors import ChaincodeError, ConfigurationError, ProofError, ReplayError
from repro.fabric.chaincode import Chaincode, ChaincodeStub, require_args
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import AttestationProofScheme, ProofBundle
from repro.proto.address import parse_address
from repro.proto.messages import NetworkConfigMsg
from repro.utils.encoding import canonical_json, from_canonical_json

CMDAC_NAME = "cmdac"

_CONFIG_PREFIX = "config/"
_POLICY_PREFIX = "policy/"
_NONCE_PREFIX = "nonce/"


def org_roots_from_config(config: NetworkConfigMsg) -> dict[str, Certificate]:
    """Extract ``org_id -> MSP root certificate`` from a recorded config."""
    roots: dict[str, Certificate] = {}
    for org in config.organizations:
        try:
            roots[org.org_id] = Certificate.from_bytes(org.root_certificate)
        except Exception as exc:
            raise ConfigurationError(
                f"recorded root certificate for org {org.org_id!r} is "
                f"malformed: {exc}"
            ) from exc
    return roots


class ConfigAndDataAcceptanceChaincode(Chaincode):
    """The CMDAC system contract.

    Functions (dispatched on ``stub.function``):

    - ``init()``
    - ``RecordNetworkConfig(network_id, config_hex)``
    - ``GetNetworkConfig(network_id)`` -> config bytes (hex)
    - ``ListNetworks()`` -> JSON array of network ids
    - ``SetVerificationPolicy(network_id, expression)``
    - ``GetVerificationPolicy(network_id)`` -> expression string
    - ``ValidateProof(source_network, address, args_json, nonce,
      data_hash_hex, proof_json)`` -> b"OK" (raises on any failure) and
      consumes the nonce
    """

    name = CMDAC_NAME

    def __init__(self) -> None:
        self._scheme = AttestationProofScheme()

    def invoke(self, stub: ChaincodeStub) -> bytes:
        function = stub.function
        if function == "init":
            return b"ok"
        handler = {
            "RecordNetworkConfig": self._record_network_config,
            "GetNetworkConfig": self._get_network_config,
            "ListNetworks": self._list_networks,
            "SetVerificationPolicy": self._set_verification_policy,
            "GetVerificationPolicy": self._get_verification_policy,
            "ValidateProof": self._validate_proof,
        }.get(function)
        if handler is None:
            raise ChaincodeError(f"CMDAC has no function {function!r}")
        return handler(stub)

    # -- configuration management ------------------------------------------------

    def _record_network_config(self, stub: ChaincodeStub) -> bytes:
        network_id, config_hex = require_args(stub, 2)
        try:
            config = NetworkConfigMsg.decode(bytes.fromhex(config_hex))
        except Exception as exc:
            raise ConfigurationError(f"undecodable network config: {exc}") from exc
        if config.network_id != network_id:
            raise ConfigurationError(
                f"config is for network {config.network_id!r}, not {network_id!r}"
            )
        if not config.organizations:
            raise ConfigurationError(
                f"config for {network_id!r} lists no organizations"
            )
        org_roots_from_config(config)  # reject malformed root certificates early
        stub.put_state(_CONFIG_PREFIX + network_id, bytes.fromhex(config_hex))
        stub.set_event("NetworkConfigRecorded", network_id.encode("utf-8"))
        return b"ok"

    def _load_config(self, stub: ChaincodeStub, network_id: str) -> NetworkConfigMsg:
        raw = stub.get_state(_CONFIG_PREFIX + network_id)
        if raw is None:
            raise ConfigurationError(
                f"no configuration recorded for foreign network {network_id!r}"
            )
        return NetworkConfigMsg.decode(raw)

    def _get_network_config(self, stub: ChaincodeStub) -> bytes:
        (network_id,) = require_args(stub, 1)
        raw = stub.get_state(_CONFIG_PREFIX + network_id)
        if raw is None:
            raise ConfigurationError(
                f"no configuration recorded for foreign network {network_id!r}"
            )
        return raw.hex().encode("ascii")

    def _list_networks(self, stub: ChaincodeStub) -> bytes:
        entries = stub.get_state_by_range(_CONFIG_PREFIX, _CONFIG_PREFIX + "￿")
        networks = [key[len(_CONFIG_PREFIX):] for key, _ in entries]
        return canonical_json(networks)

    # -- verification policies ------------------------------------------------------

    def _set_verification_policy(self, stub: ChaincodeStub) -> bytes:
        network_id, expression = require_args(stub, 2)
        parse_verification_policy(expression)  # reject malformed policies
        stub.put_state(_POLICY_PREFIX + network_id, expression.encode("utf-8"))
        return b"ok"

    def _get_verification_policy(self, stub: ChaincodeStub) -> bytes:
        (network_id,) = require_args(stub, 1)
        raw = stub.get_state(_POLICY_PREFIX + network_id)
        if raw is None:
            raise ConfigurationError(
                f"no verification policy recorded for network {network_id!r}"
            )
        return raw

    # -- data acceptance ---------------------------------------------------------------

    def _validate_proof(self, stub: ChaincodeStub) -> bytes:
        (
            source_network,
            address_text,
            args_json,
            nonce,
            data_hash_hex,
            proof_json,
        ) = require_args(stub, 6)
        address = parse_address(address_text)
        if address.network != source_network:
            raise ProofError(
                f"address {address_text!r} does not belong to source network "
                f"{source_network!r}"
            )
        try:
            expected_args = from_canonical_json(args_json.encode("utf-8"))
        except ValueError as exc:
            raise ProofError(f"args_json is not valid JSON: {exc}") from exc
        if not isinstance(expected_args, list):
            raise ProofError("args_json must be a JSON array of strings")

        config = self._load_config(stub, source_network)
        org_roots = org_roots_from_config(config)
        policy_raw = stub.get_state(_POLICY_PREFIX + source_network)
        if policy_raw is None:
            raise ProofError(
                f"no verification policy recorded for network {source_network!r}"
            )
        policy = parse_verification_policy(policy_raw.decode("utf-8"))

        bundle = ProofBundle.from_json(proof_json)
        self._scheme.validate_bundle(
            bundle,
            expected_network=source_network,
            expected_address=address,
            expected_args=[str(a) for a in expected_args],
            expected_nonce=nonce,
            expected_data_hash=data_hash_hex,
            policy=policy,
            org_roots=org_roots,
        )

        # Replay protection: consume the nonce on the ledger (§4.3).
        nonce_key = f"{_NONCE_PREFIX}{source_network}/{nonce}"
        if stub.get_state(nonce_key) is not None:
            raise ReplayError(
                f"nonce {nonce!r} from network {source_network!r} was already "
                f"consumed: replayed proof rejected"
            )
        stub.put_state(nonce_key, b"consumed")
        stub.set_event("ProofAccepted", f"{source_network}/{nonce}".encode("utf-8"))
        return b"OK"
