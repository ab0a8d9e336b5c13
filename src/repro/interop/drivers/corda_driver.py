"""Corda driver: the network-neutral protocol against a Corda-like network.

Queries address states in node vaults; proofs are attestations from the
nodes the verification policy selects — which may include the notary, as
§5 anticipates ("a verification policy can be specified to include
signatures from notaries").

The driver carries the full §2 capability surface:

- **transactions** (:meth:`CordaDriver.enable_transactions`): a remote
  invocation runs a registered *flow handler* on a designated local
  invoker node — the Corda analogue of Fabric's invoker identity — and
  the attestations cover the *finalized* outcome (transaction id and
  notarization order), each attester confirming the transaction is in its
  own vault history;
- **events** (:meth:`CordaDriver.enable_events`): a subscription taps the
  network's finality observers; each notarized transaction whose command
  matches the subscribed event name is pushed as a wire-shape
  notification, exposure-gated by the platform port under the same
  ``event:<name>`` rule objects as Fabric;
- **assets** (:meth:`CordaDriver.enable_assets`): the HTLC vault as
  notary-backed escrow — each asset is a linear state whose lock record
  evolves under the contract rules of
  :func:`repro.assets.contracts.register_corda_asset_contract`, with the
  notary's uniqueness check ruling out double claim/refund, and
  ``GetLock``/``GetAsset`` registered as proof-carrying query handlers so
  counterparties verify locks exactly as on Fabric/Quorum. Without
  enablement the relay keeps failing closed with a capability-marked
  error (:class:`repro.errors.UnsupportedCapabilityError`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.corda.network import CordaNetwork
from repro.corda.node import CordaNode
from repro.corda.states import LinearState
from repro.corda.transactions import CordaTransaction
from repro.errors import ReproError
from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.base import NetworkDriver, _Refusal
from repro.interop.events import RemoteEventNotification
from repro.interop.policy import Attester
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import NetworkQuery

# A query handler resolves (node, args) -> plaintext result bytes.
QueryHandler = Callable[[CordaNode, list[str]], bytes]

# A flow handler drives one remote invocation on the invoker node and
# returns (plaintext result bytes, the finalized transaction).
FlowHandler = Callable[[CordaNetwork, CordaNode, list[str]], tuple[bytes, CordaTransaction]]


def default_vault_query(node: CordaNode, args: list[str]) -> bytes:
    """Built-in handler ``vault/GetState``: fetch a state by linear id."""
    if len(args) != 1:
        raise ReproError("GetState expects exactly one argument (linear_id)")
    _, state = node.lookup(args[0])
    return json.dumps(
        {"linear_id": state.linear_id, "kind": state.kind, "data": state.data},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def default_record_state_flow(
    network: CordaNetwork, node: CordaNode, args: list[str]
) -> tuple[bytes, CordaTransaction]:
    """Built-in flow ``vault/RecordState``: issue a fresh linear state.

    Args: ``linear_id, kind, data_json[, participants_csv]`` — with no
    explicit participants every node of the network participates (so the
    state is visible to, and signable by, any attester a verification
    policy may select).
    """
    if len(args) < 3:
        raise ReproError(
            "RecordState expects linear_id, kind, data_json[, participants]"
        )
    linear_id, kind, data_json = args[0], args[1], args[2]
    if len(args) > 3 and args[3]:
        participants = tuple(part for part in args[3].split(",") if part)
    else:
        participants = tuple(peer.name for peer in network.nodes)
    state = LinearState(
        linear_id=linear_id,
        kind=kind,
        data=json.loads(data_json),
        participants=participants,
    )
    transaction = node.propose([], [state], "Record")
    result = json.dumps(
        {"linear_id": linear_id, "kind": kind, "tx_id": transaction.tx_id},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return result, transaction


@dataclass
class CordaEventTap:
    """A closeable listener on the network's finality observers.

    Closing flips a flag the observer closure checks *and* detaches the
    closure from the network (via :attr:`detach`), so subscription churn
    never accumulates dead observers.
    """

    network_id: str
    contract: str
    event_name: str
    active: bool = True
    delivered: int = field(default=0)
    #: Set by the driver: deregisters this tap's observer closure.
    detach: Callable[[], None] | None = None

    def close(self) -> None:
        self.active = False
        if self.detach is not None:
            self.detach()
            self.detach = None


class CordaDriver(NetworkDriver):
    """Drives queries against an in-process :class:`CordaNetwork`."""

    platform = "corda"
    _noun = "node"
    _no_transactions = "corda network {!r} has no transaction capability enabled"

    def __init__(self, network: CordaNetwork, port: InteropPort) -> None:
        super().__init__(network.name, network.clock)
        self._network = network
        self._port = port
        self._handlers: dict[tuple[str, str], QueryHandler] = {
            ("vault", "GetState"): default_vault_query,
        }
        self._flows: dict[tuple[str, str], FlowHandler] = {
            ("vault", "RecordState"): default_record_state_flow,
        }
        self._invoker_node: str | None = None

    def register_handler(
        self, contract: str, function: str, handler: QueryHandler
    ) -> None:
        self._handlers[(contract, function)] = handler

    def register_flow(
        self, contract: str, function: str, handler: FlowHandler
    ) -> None:
        """Expose ``contract/function`` as a remotely-invokable flow."""
        self._flows[(contract, function)] = handler

    # -- capability enablement ----------------------------------------------------

    def enable_transactions(self, invoker_node: str | CordaNode) -> None:
        """Grant the transaction capability.

        ``invoker_node`` is the designated local node that initiates flows
        on behalf of authenticated foreign requestors (a governance choice,
        mirroring Fabric's invoker identity — the foreign client is not a
        member of this network).
        """
        name = (
            invoker_node.name
            if isinstance(invoker_node, CordaNode)
            else invoker_node
        )
        self._network.node(name)  # fail fast on an unknown node
        self._invoker_node = name
        self.supports_transactions = True

    def enable_assets(
        self, invoker_node: str | CordaNode, contract: str | None = None
    ) -> None:
        """Grant the asset capability: HTLC flows propose under ``invoker_node``.

        Registers the vault's contract rules on the network (idempotent),
        attaches a :class:`repro.assets.ports.CordaAssetLedgerPort`, and
        exposes ``GetLock``/``GetAsset`` as query handlers under
        ``contract`` (default
        :data:`repro.assets.contracts.CORDA_ASSET_CONTRACT`) so remote
        coordinators can fetch proof-carrying lock records.
        """
        from repro.assets.contracts import (
            CORDA_ASSET_CONTRACT,
            register_corda_asset_contract,
        )
        from repro.assets.ports import CordaAssetLedgerPort

        name = (
            invoker_node.name
            if isinstance(invoker_node, CordaNode)
            else invoker_node
        )
        node = self._network.node(name)  # fail fast on an unknown node
        contract = contract or CORDA_ASSET_CONTRACT
        register_corda_asset_contract(self._network)
        port = CordaAssetLedgerPort(self._network, self._port, node, contract)
        self.attach_asset_port(port)
        self.register_handler(contract, "GetLock", port.get_lock_view)
        self.register_handler(contract, "GetAsset", port.get_asset_view)

    def enable_events(self) -> None:
        """Grant the event capability (subscriptions tap network finality).

        Needs no reader identity: the Corda port holds the exposure rules
        in node-attached service state, not on-ledger chaincode.
        """
        self.supports_events = True

    def _attesting_identity(self, peer_id: str):
        if peer_id == self._network.notary.identity.id:
            return self._network.notary.identity
        return self._network.node(peer_id.split(".", 1)[0]).identity

    def _attester_pool(self) -> list[Attester]:
        """Every node, then the notary, may attest (§5)."""
        notary = self._network.notary.identity
        nodes = [(node.org, node.identity.id) for node in self._network.nodes]
        return nodes + [(notary.org, notary.id)]

    def _lookup(self, address: CrossNetworkAddress, verb: str) -> None:
        """A query runs a registered handler; a transaction, a registered flow."""
        served, noun = (self._handlers, "query") if verb == "query" else (self._flows, "flow")
        if (address.contract, address.function) not in served:
            raise _Refusal(
                f"corda network {self.network_id!r} serves no {noun} "
                f"{address.contract}/{address.function}"
            )

    def _read(self, peer_id: str, address: CrossNetworkAddress, query: NetworkQuery):
        identity = self._attesting_identity(peer_id)
        if peer_id == self._network.notary.identity.id:
            # The notary attests over the proposing node's view.
            source_node = self._network.nodes[0]
        else:
            source_node = self._network.node(identity.name)
        handler = self._handlers[(address.contract, address.function)]
        plaintext = handler(source_node, list(query.args))
        return identity, plaintext, None

    # -- transaction capability ---------------------------------------------------

    def _submit(self, address: CrossNetworkAddress, query: NetworkQuery):
        """Run the registered flow on the designated invoker node; the
        outcome is the finalized transaction and its notarization order."""
        flow = self._flows[(address.contract, address.function)]
        invoker = self._network.node(self._invoker_node)
        result, transaction = flow(self._network, invoker, list(query.args))
        return result, transaction.tx_id, self._network.sequence_of(transaction.tx_id), "VALID"

    def _committed_at(self, peer_id: str, tx_id: str):
        identity = self._attesting_identity(peer_id)
        if peer_id == self._network.notary.identity.id:
            # The notary attests over the network-wide record it itself
            # imposed the finality order on.
            history = self._network.transactions
        else:
            history = self._network.node(identity.name).transactions
        if tx_id not in history:
            raise _Refusal(f"node {peer_id!r} has not finalized {tx_id!r}")
        return identity

    # -- event capability ---------------------------------------------------------

    def open_event_tap(self, request, listener):
        """Exposure-check and tap network finality (§2 primitive iii).

        Every notarized transaction whose command matches the subscribed
        event name is normalized into a wire-shape notification: the
        payload is the first output state's linear id (the stable handle a
        subscriber feeds into its follow-up proof-carrying ``GetState``
        query), the block number its notarization order.
        """
        if not self.supports_events:
            from repro.errors import UnsupportedCapabilityError

            raise UnsupportedCapabilityError(
                f"corda network {self.network_id!r} has no event capability "
                f"enabled"
            )
        address = request.address
        contract = address.contract if address else ""
        event_name = request.event_name
        self._port.check_access(request.auth, contract, f"event:{event_name}")
        tap = CordaEventTap(
            network_id=self.network_id, contract=contract, event_name=event_name
        )

        def _observe(transaction: CordaTransaction) -> None:
            if not tap.active:
                return
            if event_name not in ("*", transaction.command):
                return
            payload = (
                transaction.outputs[0].linear_id.encode("utf-8")
                if transaction.outputs
                else b""
            )
            tap.delivered += 1
            listener(
                RemoteEventNotification(
                    source_network=self.network_id,
                    chaincode=contract,
                    name=transaction.command,
                    payload=payload,
                    block_number=self._network.sequence_of(transaction.tx_id),
                    tx_id=transaction.tx_id,
                )
            )

        self._network.add_transaction_observer(_observe)
        tap.detach = lambda: self._network.remove_transaction_observer(_observe)
        return tap

    def close_event_tap(self, tap) -> None:
        tap.close()
