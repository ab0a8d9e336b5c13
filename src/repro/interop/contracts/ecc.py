"""ECC: Exposure Control Chaincode — the one Fabric gate.

"The Exposure Control contract enforces access control policy rules
against incoming requests, determining which data items in the local
ledger and smart contract functions can be exposed" (§3.2).

Rules follow the paper's §4.3 tuple form
``<network ID, organization ID, chaincode name, chaincode function>``:
the subject is a member of a (foreign) network organization, the object
is a local chaincode function (or ``event:<name>`` for a subscription).
The example rule recorded on STL is
``<"we-trade", "seller-org", "TradeLensCC", "GetBillOfLading">``.

``CheckAccess`` is the one place a Fabric network decides access, for
every verb:

- a query runs it inside the application chaincode: the paper's ~35 SLOC
  adaptation inserts exactly two calls, ``CheckAccess`` before query
  execution and ``SealResponse`` after;
- a transaction, an asset command and a subscription run it through
  :func:`check_access`, one read-only simulation on one peer with the
  requestor's certificate as proposal creator.

Either way the decision is :func:`repro.interop.access.authorise` against
the foreign configuration the CMDAC recorded, as in the paper ("the ECC
validates the SWT-SC's certificate using the recorded SWT configuration
(managed by the CMDAC)").
"""

from __future__ import annotations

import json

from repro.crypto.keys import PublicKey
from repro.errors import ChaincodeError, ConfigurationError
from repro.fabric.chaincode import Chaincode, ChaincodeStub, require_args
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Proposal
from repro.interop.access import authorise
from repro.interop.contracts.cmdac import CMDAC_NAME, org_roots_from_config
from repro.interop.proofs import seal_result
from repro.proto.messages import AuthInfo, NetworkConfigMsg
from repro.utils.encoding import canonical_json
from repro.utils.ids import random_id

ECC_NAME = "ecc"

#: Transient key of the interop context every relay proposal carries.
INTEROP_TRANSIENT_KEY = "interop"

_RULE_PREFIX = "rule/"
_WILDCARD = "*"


def _rule_key(network: str, org: str, chaincode: str, function: str) -> str:
    return f"{_RULE_PREFIX}{network}/{org}/{chaincode}/{function}"


class ExposureControlChaincode(Chaincode):
    """The ECC system contract.

    Functions:

    - ``init()``
    - ``AddAccessRule(network, org, chaincode, function)`` — ``org`` and
      ``function`` accept ``*`` wildcards
    - ``RemoveAccessRule(network, org, chaincode, function)``
    - ``ListAccessRules()`` -> JSON array of rule tuples
    - ``CheckAccess(requesting_network, requesting_org, chaincode, function)``
      -> b"OK"; :func:`~repro.interop.access.authorise` of the proposal
      creator, claiming the requestor named in the interop transient,
      against the CMDAC-recorded roots and this contract's rules. Raises
      :class:`~repro.errors.AccessDeniedError` otherwise.
    - ``SealResponse(result_hex, client_pubkey_hex, confidential)`` ->
      seal-envelope bytes (the result channel of the proof format, §4.3).
    """

    name = ECC_NAME

    def invoke(self, stub: ChaincodeStub) -> bytes:
        function = stub.function
        if function == "init":
            return b"ok"
        handler = {
            "AddAccessRule": self._add_rule,
            "RemoveAccessRule": self._remove_rule,
            "ListAccessRules": self._list_rules,
            "CheckAccess": self._check_access,
            "SealResponse": self._seal_response,
        }.get(function)
        if handler is None:
            raise ChaincodeError(f"ECC has no function {function!r}")
        return handler(stub)

    # -- rule management -----------------------------------------------------------

    def _add_rule(self, stub: ChaincodeStub) -> bytes:
        network, org, chaincode, function = require_args(stub, 4)
        if not network or network == _WILDCARD:
            raise ChaincodeError("access rules must name a specific network")
        if not chaincode or chaincode == _WILDCARD:
            raise ChaincodeError("access rules must name a specific chaincode")
        stub.put_state(_rule_key(network, org, chaincode, function), b"allow")
        stub.set_event(
            "AccessRuleAdded",
            canonical_json([network, org, chaincode, function]),
        )
        return b"ok"

    def _remove_rule(self, stub: ChaincodeStub) -> bytes:
        network, org, chaincode, function = require_args(stub, 4)
        key = _rule_key(network, org, chaincode, function)
        if stub.get_state(key) is None:
            raise ChaincodeError(
                f"no access rule <{network}, {org}, {chaincode}, {function}>"
            )
        stub.del_state(key)
        return b"ok"

    def _list_rules(self, stub: ChaincodeStub) -> bytes:
        entries = stub.get_state_by_range(_RULE_PREFIX, _RULE_PREFIX + "￿")
        rules = [key[len(_RULE_PREFIX):].split("/") for key, _ in entries]
        return canonical_json(rules)

    # -- access decisions --------------------------------------------------------------

    def _check_access(self, stub: ChaincodeStub) -> bytes:
        requesting_network, requesting_org, chaincode, function = require_args(stub, 4)
        creator = stub.get_creator()
        interop_raw = stub.get_transient(INTEROP_TRANSIENT_KEY)
        requestor = json.loads(interop_raw).get("requestor", "") if interop_raw else ""
        try:
            config_hex = stub.invoke_chaincode(
                CMDAC_NAME, "GetNetworkConfig", [requesting_network]
            )
        except ConfigurationError:
            roots = None
        else:
            roots = org_roots_from_config(
                NetworkConfigMsg.decode(bytes.fromhex(config_hex.decode("ascii")))
            )
        authorise(
            AuthInfo(
                requesting_network=requesting_network,
                requesting_org=requesting_org,
                requestor=requestor,
                certificate=creator.to_bytes() if creator else b"",
            ),
            roots,
            lambda rule: stub.get_state(_rule_key(*rule)) is not None,
            chaincode,
            function,
        )
        return b"OK"

    # -- response sealing ---------------------------------------------------------------

    def _seal_response(self, stub: ChaincodeStub) -> bytes:
        result_hex, client_pubkey_hex, confidential_text = require_args(stub, 3)
        confidential = confidential_text.lower() == "true"
        client_key: PublicKey | None = None
        if confidential:
            try:
                client_key = PublicKey.from_bytes(bytes.fromhex(client_pubkey_hex))
            except Exception as exc:
                raise ChaincodeError(
                    f"invalid client public key for response sealing: {exc}"
                ) from exc
        try:
            plaintext = bytes.fromhex(result_hex)
        except ValueError as exc:
            raise ChaincodeError(f"result_hex is not valid hex: {exc}") from exc
        return seal_result(plaintext, client_key, confidential)


def check_access(
    network: FabricNetwork, auth: AuthInfo | None, contract: str, obj: str
) -> None:
    """Run ECC ``CheckAccess`` for a request that executes no chaincode query.

    One read-only simulation on one peer, with the requestor's certificate
    as the proposal creator: the same call application chaincode makes for
    a query. Nothing is signed, ordered or committed. Raises
    :class:`~repro.errors.AccessDeniedError` on refusal.
    """
    auth = auth or AuthInfo()
    network.peers[0].simulate(
        Proposal(
            tx_id=random_id("access-"),
            channel=network.channel,
            chaincode=ECC_NAME,
            function="CheckAccess",
            args=(auth.requesting_network, auth.requesting_org, contract, obj),
            creator=auth.certificate,
            transient={
                INTEROP_TRANSIENT_KEY: canonical_json({"requestor": auth.requestor})
            },
            timestamp=network.clock.now(),
        )
    )
