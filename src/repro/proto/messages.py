"""Wire schemas for relay-to-relay communication.

The field layout mirrors what §3.2 of the paper requires the protocol to
carry: network/ledger/contract addressing, function arguments, a
verification policy for the source relay to satisfy, authentication
details of the requesting entity, and — in responses — the queried data
along with a proof satisfying that policy.

Proofs follow §4.3: each source peer contributes an
``<encrypted result, encrypted metadata, signature>`` triple; the array of
``<encrypted metadata, signature>`` pairs constitutes the proof. The
signed metadata carries the result's digest, and the reply carries the
encrypted result once (see :mod:`repro.interop.proofs`).
"""

from __future__ import annotations

from typing import Mapping

from repro.wire import (
    BoolField,
    BytesField,
    DoubleField,
    MapField,
    Message,
    MessageField,
    RepeatedBytesField,
    RepeatedMessageField,
    RepeatedStringField,
    StringField,
    UintField,
)

PROTOCOL_VERSION = 1

# RelayEnvelope.kind values.
MSG_KIND_QUERY_REQUEST = 1
MSG_KIND_QUERY_RESPONSE = 2
MSG_KIND_ERROR = 3
MSG_KIND_BATCH_REQUEST = 4
MSG_KIND_BATCH_RESPONSE = 5
MSG_KIND_TRANSACT_REQUEST = 6
MSG_KIND_TRANSACT_RESPONSE = 7
MSG_KIND_EVENT_SUBSCRIBE = 8
MSG_KIND_EVENT_PUBLISH = 9
MSG_KIND_EVENT_UNSUBSCRIBE = 10
MSG_KIND_EVENT_ACK = 11
MSG_KIND_ASSET_LOCK = 12
MSG_KIND_ASSET_CLAIM = 13
MSG_KIND_ASSET_UNLOCK = 14
MSG_KIND_ASSET_STATUS = 15
MSG_KIND_ASSET_ACK = 16

#: The asset-exchange command family (hash-time-locked asset operations).
#: All four requests are answered with a :data:`MSG_KIND_ASSET_ACK`
#: envelope carrying an :class:`AssetAckMsg`.
ASSET_COMMAND_KINDS = frozenset(
    {
        MSG_KIND_ASSET_LOCK,
        MSG_KIND_ASSET_CLAIM,
        MSG_KIND_ASSET_UNLOCK,
        MSG_KIND_ASSET_STATUS,
    }
)

#: Envelope kinds whose serving has side effects on the source network (a
#: committed transaction, a registered/removed subscription, an event
#: delivery, an asset lock/claim/refund). Caching layers must never replay
#: these from a stored reply.
SIDE_EFFECTING_KINDS = frozenset(
    {
        MSG_KIND_TRANSACT_REQUEST,
        MSG_KIND_EVENT_SUBSCRIBE,
        MSG_KIND_EVENT_PUBLISH,
        MSG_KIND_EVENT_UNSUBSCRIBE,
        MSG_KIND_ASSET_LOCK,
        MSG_KIND_ASSET_CLAIM,
        MSG_KIND_ASSET_UNLOCK,
    }
)

#: Request kinds whose serving reads but never mutates source-network
#: state — safe to cache, replay, and retry freely. A batch is read-only
#: *as a kind*; one carrying transaction members is marked with
#: :data:`SIDE_EFFECTING_HEADER` by the sending relay, and caching layers
#: must honor the header, not just the kind.
READ_ONLY_KINDS = frozenset(
    {
        MSG_KIND_QUERY_REQUEST,
        MSG_KIND_BATCH_REQUEST,
        MSG_KIND_ASSET_STATUS,
    }
)

#: Reply kinds: these travel back correlated to a request and are never
#: keys of the relay's dispatch table, ``RelayService._SERVE_TABLE``.
#:
#: Together the three sets form the repo's wire-kind registry — every
#: ``MSG_KIND_*`` constant belongs to exactly one of
#: :data:`SIDE_EFFECTING_KINDS`, :data:`READ_ONLY_KINDS`, or
#: :data:`REPLY_KINDS`, and every request kind must be a key of that
#: table. ``python -m repro.analysis`` (rule REP301)
#: enforces the partition, the export list, and dispatch reachability;
#: adding a kind without classifying it here fails CI.
REPLY_KINDS = frozenset(
    {
        MSG_KIND_QUERY_RESPONSE,
        MSG_KIND_BATCH_RESPONSE,
        MSG_KIND_TRANSACT_RESPONSE,
        MSG_KIND_EVENT_ACK,
        MSG_KIND_ASSET_ACK,
        MSG_KIND_ERROR,
    }
)

#: Envelope header marking a (batch) request that carries side-effecting
#: members; set by the sending relay so intermediaries need not decode the
#: payload to know the request is unsafe to serve from cache.
SIDE_EFFECTING_HEADER = "side-effecting"


def is_side_effecting(kind: int, headers: Mapping[str, str] | None) -> bool:
    """Does serving an envelope of ``kind`` with ``headers`` mutate
    source-network state? True for every :data:`SIDE_EFFECTING_KINDS`
    kind, and for a batch the sender marked with
    :data:`SIDE_EFFECTING_HEADER`; the header on any other kind is
    ignored. The relay's exactly-once record, the response cache and the
    balancer's sticky routing all decide with this one rule."""
    if kind in SIDE_EFFECTING_KINDS:
        return True
    return (
        kind == MSG_KIND_BATCH_REQUEST
        and headers is not None
        and headers.get(SIDE_EFFECTING_HEADER) == "true"
    )


#: Error-envelope header classifying *why* a request was refused, so the
#: requesting relay can raise a typed error without parsing the message
#: text. Currently one class: :data:`ERROR_KIND_CAPABILITY` marks a
#: fail-closed capability refusal (the target network has no driver that
#: supports the requested verb) — final, never worth failing over.
ERROR_KIND_HEADER = "error-kind"
ERROR_KIND_CAPABILITY = "capability"

# NetworkQuery.invocation values: how the source network must run the
# addressed function. The empty string (the wire default) means a
# read-only evaluation; "transaction" routes through the source network's
# endorse-order-commit pipeline (§5 extension).
INVOCATION_QUERY = ""
INVOCATION_TRANSACTION = "transaction"

# QueryResponse.status values. The two finality statuses are produced
# only by probabilistic-finality drivers (repro.pubchain): PENDING marks
# a record below its required confirmation depth (retry later — nothing
# is wrong with the record), REORG marks a record orphaned by a chain
# reorganization (re-verify from scratch). Clients surface them as
# repro.errors.FinalityPendingError / ReorgDetectedError.
STATUS_OK = 0
STATUS_ACCESS_DENIED = 1
STATUS_ERROR = 2
STATUS_PENDING_FINALITY = 3
STATUS_REORG = 4


class NetworkAddressMsg(Message):
    """Wire form of :class:`repro.proto.address.CrossNetworkAddress`."""

    network = StringField(1)
    ledger = StringField(2)
    contract = StringField(3)
    function = StringField(4)


class VerificationPolicyMsg(Message):
    """A verification policy as a portable expression string.

    ``expression`` uses the verification vocabulary
    (:mod:`repro.interop.policy`) of the policy algebra in
    :mod:`repro.policy`, e.g. ``AND(org:SellerOrg, org:CarrierOrg)``
    — "proof from a peer in both the Seller and Carrier organizations"
    (§4.3). Carrying the expression rather than a platform-specific
    structure keeps the protocol network-neutral.
    """

    expression = StringField(1)


class AuthInfo(Message):
    """Authentication details of the requesting entity (§3.2).

    ``certificate`` is the requesting client's member certificate issued by
    its organization's MSP; ``public_key`` duplicates the encryption key so
    source peers can encrypt without parsing the certificate format of a
    foreign platform.
    """

    requesting_network = StringField(1)
    requesting_org = StringField(2)
    requestor = StringField(3)
    certificate = BytesField(4)
    public_key = BytesField(5)


class NetworkQuery(Message):
    """A cross-network query request (message-flow step 1)."""

    version = UintField(1)
    address = MessageField(2, NetworkAddressMsg)
    args = RepeatedStringField(3)
    nonce = StringField(4)
    auth = MessageField(5, AuthInfo)
    policy = MessageField(6, VerificationPolicyMsg)
    confidential = BoolField(7)
    #: :data:`INVOCATION_QUERY` (default) or :data:`INVOCATION_TRANSACTION`.
    #: Carried per member so batch envelopes can mix read-only queries with
    #: committed transactions while each member routes to the right driver.
    invocation = StringField(8)


class ProofMetadata(Message):
    """The metadata a source peer signs over a query result (§4.3).

    Binds together the query (address + args + nonce), the SHA-256 of the
    plaintext result (``data_hash``) and the responding peer's identity, so
    a signature over the encoded metadata attests "this peer executed this
    query and got the result with this digest". The result itself is not
    here: it travels once, sealed, in the :class:`QueryResponse`.

    ``result_hash`` and ``result`` belong to proof format 1, which embedded
    the whole seal envelope and its hash. Nothing writes them now; they
    stay in the schema so that stored format-1 bundles still decode, and
    only :func:`repro.interop.proofs.attested_data_hash` reads them.
    """

    address = MessageField(1, NetworkAddressMsg)
    args = RepeatedStringField(2)
    nonce = StringField(3)
    result_hash = BytesField(4)  # format 1 only
    peer_id = StringField(5)
    org = StringField(6)
    network = StringField(7)
    timestamp = DoubleField(8)
    result = BytesField(9)  # format 1 only
    data_hash = BytesField(10)


class Attestation(Message):
    """One peer's contribution to a proof.

    ``metadata_cipher`` is the ECIES encryption (under the requesting
    client's public key) of the encoded :class:`ProofMetadata`;
    ``signature`` is the peer's ECDSA signature over the *plaintext*
    encoded metadata; ``certificate`` identifies the signer for validation
    against the source network's recorded configuration. When
    confidentiality is disabled, ``metadata_plain`` carries the metadata
    unencrypted instead.
    """

    metadata_cipher = BytesField(1)
    metadata_plain = BytesField(2)
    signature = BytesField(3)
    certificate = BytesField(4)
    peer_id = StringField(5)
    org = StringField(6)


class QueryResponse(Message):
    """A cross-network query response (message-flow step 8).

    ``result_cipher`` is the seal envelope holding the query result
    encrypted with the requesting client's public key (``result_plain``
    holds it unencrypted when confidentiality is off); it is the only copy
    of the result in the reply. ``attestations`` is the proof. Errors
    carry a status code plus human-readable detail.
    """

    version = UintField(1)
    nonce = StringField(2)
    status = UintField(3)
    error = StringField(4)
    result_cipher = BytesField(5)
    result_plain = BytesField(6)
    attestations = RepeatedMessageField(7, Attestation)


class BatchQueryRequest(Message):
    """N queries to one target network in a single envelope round-trip.

    Batching lets the destination relay amortize discovery, framing, and
    failover across all member queries; the source relay fans the members
    across its network driver. Each member query keeps its own nonce, so
    end-to-end confidentiality and replay protection are per query exactly
    as in the singleton flow.
    """

    version = UintField(1)
    queries = RepeatedMessageField(2, NetworkQuery)


class BatchQueryResponse(Message):
    """The positional responses to a :class:`BatchQueryRequest`.

    ``responses[i]`` answers ``queries[i]``; a member that failed carries a
    non-OK status in its own :class:`QueryResponse` rather than poisoning
    the batch (partial-failure semantics).
    """

    version = UintField(1)
    responses = RepeatedMessageField(2, QueryResponse)


class EventSubscribeRequest(Message):
    """A cross-network event subscription (the §2 third primitive).

    ``address`` names the source network/ledger/chaincode; ``event_name``
    is the chaincode event to subscribe to (``*`` matches any). The
    subscription is access-controlled by the source ECC under the rule
    object ``event:<name>``, authenticated by ``auth`` exactly like a
    query. The source relay assigns the subscription id (returned in the
    :class:`EventAck`) and pushes :class:`EventNotificationMsg` envelopes
    to the subscriber's network as matching events commit.
    """

    version = UintField(1)
    address = MessageField(2, NetworkAddressMsg)
    event_name = StringField(3)
    auth = MessageField(4, AuthInfo)
    #: Subscriber-proposed subscription id. Letting the subscriber pick the
    #: id (a random token) means its delivery sink can be installed
    #: *before* the subscribe round-trip, so no window exists in which the
    #: source's first push finds no sink. Empty = source assigns (legacy).
    subscription_id = StringField(5)


class EventNotificationMsg(Message):
    """One *unauthenticated* event notification pushed by a source relay.

    Deliberately carries no proof: notifications are compact and fast, and
    the paper's trust argument is preserved by the notify-then-verify
    pattern — the subscriber upgrades a notification to trusted data with
    a follow-up proof-carrying query before acting on it.
    """

    version = UintField(1)
    subscription_id = StringField(2)
    source_network = StringField(3)
    chaincode = StringField(4)
    name = StringField(5)
    payload = BytesField(6)
    block_number = UintField(7)
    tx_id = StringField(8)


class EventUnsubscribeRequest(Message):
    """Tears down one subscription on the source relay."""

    version = UintField(1)
    subscription_id = StringField(2)
    auth = MessageField(3, AuthInfo)


class EventAck(Message):
    """The reply to any event-kind envelope.

    Subscribe acks carry the assigned ``subscription_id``; publish acks
    confirm sink delivery (a non-OK status tells the source relay the
    subscription is gone and can be pruned); unsubscribe acks confirm
    teardown. Statuses reuse the ``STATUS_*`` codes.
    """

    version = UintField(1)
    subscription_id = StringField(2)
    status = UintField(3)
    error = StringField(4)


class AssetCommandMsg(Message):
    """One hash-time-locked asset operation against a remote ledger.

    The four :data:`ASSET_COMMAND_KINDS` envelope kinds all carry this
    payload; the *kind* selects the verb (lock, claim, unlock, status) so
    relays and caches can route on the envelope alone. ``address`` names
    the network/ledger/contract holding the asset (no function — the verb
    is the kind); ``auth`` authenticates the acting party exactly like a
    query, and the source network's exposure control gates each verb as a
    rule object on the asset contract.

    Hashlock + timelock semantics (the HTLC contract): a *lock* escrows
    ``asset_id`` for ``recipient`` under SHA-256 ``hashlock`` until the
    absolute ledger time ``timeout``; a *claim* transfers it to the
    recipient iff it reveals the matching ``preimage`` strictly before the
    timeout; an *unlock* refunds the original owner at-or-after the
    timeout. The two deadlines partition time, so an asset is never
    claimable and refundable at once.
    """

    version = UintField(1)
    address = MessageField(2, NetworkAddressMsg)
    asset_id = StringField(3)
    recipient = StringField(4)
    hashlock = BytesField(5)
    timeout = DoubleField(6)
    preimage = BytesField(7)
    auth = MessageField(8, AuthInfo)
    nonce = StringField(9)


class AssetAckMsg(Message):
    """The reply to any asset-command envelope.

    Carries the post-command lock record — state, hashlock, timeout,
    parties, and (once a claim committed) the revealed ``preimage``, which
    is public on-ledger knowledge exactly as in an HTLC — plus the commit
    coordinates (``tx_id``, ``block_number``) for side-effecting verbs.
    The ack is *transport* truth only: before acting on a remote lock, a
    counterparty upgrades it to trusted data with a proof-carrying query
    against the asset contract's ``GetLock`` function.
    """

    version = UintField(1)
    nonce = StringField(2)
    status = UintField(3)
    error = StringField(4)
    asset_id = StringField(5)
    state = StringField(6)
    owner = StringField(7)
    recipient = StringField(8)
    hashlock = BytesField(9)
    timeout = DoubleField(10)
    preimage = BytesField(11)
    tx_id = StringField(12)
    block_number = UintField(13)


class RelayEnvelope(Message):
    """Framing for relay-to-relay transport.

    Relays route on the envelope alone (kind + destination network) and
    treat ``payload`` as opaque bytes — which is precisely what makes
    tampering by a malicious relay detectable rather than preventable,
    and why results and proofs are protected end-to-end.
    """

    version = UintField(1)
    kind = UintField(2)
    request_id = StringField(3)
    source_network = StringField(4)
    destination_network = StringField(5)
    payload = BytesField(6)
    headers = MapField(7)


class PeerConfigMsg(Message):
    """A foreign peer's identity record (shared network configuration)."""

    peer_id = StringField(1)
    org = StringField(2)
    endpoint = StringField(3)
    certificate = BytesField(4)


class OrganizationConfigMsg(Message):
    """A foreign organization's identity record: its MSP root certificate."""

    org_id = StringField(1)
    msp_id = StringField(2)
    root_certificate = BytesField(3)
    peers = RepeatedMessageField(4, PeerConfigMsg)


class NetworkConfigMsg(Message):
    """A foreign network's full configuration, recorded on the local ledger
    by the Configuration Management contract (§3.3)."""

    network_id = StringField(1)
    platform = StringField(2)  # e.g. "fabric", "corda", "quorum"
    organizations = RepeatedMessageField(3, OrganizationConfigMsg)
    ledgers = RepeatedStringField(4)
