"""A relay that rewrites what it carries and keeps the nonce.

The relay is untrusted (§5), and the nonce alone does not say *what* was
asked. A client must hold every attestation to the query it prepared —
network, address, arguments and nonce — and to the digest of the data it
opened, as the destination contract does.

A relay that rewrites the *reply* is refused too. A peer seals its
result box and its metadata box under one key agreement, and the client
derives that key once per reply, so moving boxes between the slots of
one reply, grafting one peer's ephemeral key onto another's box, or
replaying a box from an earlier reply must each end in ``ProofError``.

A relay can also reseal a transaction's outcome under the client's
public key, which every request carries. The client reads an outcome only
after the attestations bind it, so a resealed outcome — well-formed or
not — ends in ``ProofError`` too.

One gap is still open: for a transaction the client verifies no
attestation signature, so a relay that re-makes every attestation over a
commit that never happened is believed. That scenario is a strict
expected failure until ROADMAP item 1 lands.
"""

from __future__ import annotations

import copy
import re
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.crypto.ecies import ecies_encrypt
from repro.crypto.keys import PublicKey
from repro.errors import ProofError
from repro.interop.proofs import AttestationProofScheme, seal_result
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_TRANSACT_REQUEST,
    Attestation,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
)
from repro.utils.encoding import canonical_json

PLATFORMS = ["fabric", "quorum", "corda", "pubchain"]


@contextmanager
def interposed(target, wrapper_factory):
    """Put ``wrapper_factory(relay)`` in front of the target's source relay."""
    registry = target.registry
    originals = list(registry.lookup(target.network_id))
    wrapper = wrapper_factory(originals[0])
    for endpoint in originals:
        registry.unregister(target.network_id, endpoint)
    registry.register(target.network_id, wrapper)
    try:
        yield wrapper
    finally:
        registry.unregister(target.network_id, wrapper)
        for endpoint in originals:
            registry.register(target.network_id, endpoint)


class RequestRewritingRelay:
    """Rewrites each query request in flight, keeping its nonce."""

    def __init__(self, inner, rewrite) -> None:
        self._inner = inner
        self._rewrite = rewrite
        self.rewritten = 0

    def handle_request(self, data: bytes) -> bytes:
        envelope = RelayEnvelope.decode(data)
        if envelope.kind == MSG_KIND_QUERY_REQUEST:
            query = NetworkQuery.decode(envelope.payload)
            self._rewrite(query)
            envelope.payload = query.encode()
            data = envelope.encode()
            self.rewritten += 1
        return self._inner.handle_request(data)


@pytest.mark.parametrize("conformance_target", PLATFORMS, indirect=True)
class TestClientBindsTheRequest:
    def test_rewritten_arguments_are_refused(self, conformance_target):
        """The client asks for a record that does not exist; the relay asks
        the source for one that does. The honest answer to the wrong
        question must not pass as the answer to the client's."""
        target = conformance_target

        def swap_args(query):
            query.args = list(target.query_args)

        with interposed(target, lambda inner: RequestRewritingRelay(inner, swap_args)) as relay:
            with pytest.raises(ProofError, match="arguments"):
                target.client.remote_query(
                    target.query_address, ["NO-SUCH-RECORD"], policy=target.policy
                )
        assert relay.rewritten == 1

    def test_rewritten_function_is_refused(self, conformance_target):
        target = conformance_target
        asked = target.query_address + "Elsewhere"
        real_function = target.query_address.rsplit("/", 1)[1]

        def swap_function(query):
            query.address.function = real_function

        with interposed(target, lambda inner: RequestRewritingRelay(inner, swap_function)) as relay:
            with pytest.raises(ProofError, match="address"):
                target.client.remote_query(asked, list(target.query_args), policy=target.policy)
        assert relay.rewritten == 1


EPHEMERAL = 65  # the ECIES box's ephemeral public key prefix
ENVELOPE_HEADER = 2 + 32  # seal envelope: version, mode, SHA-256


class ReplyRewritingRelay:
    """Rewrites each query or transaction reply in flight.

    ``rewrite(response, earlier)`` edits the reply; ``earlier`` holds the
    honest replies this relay carried before it.
    """

    def __init__(self, inner, rewrite) -> None:
        self._inner = inner
        self._rewrite = rewrite
        self.honest: list[QueryResponse] = []
        self.rewritten = 0

    def handle_request(self, data: bytes) -> bytes:
        reply_bytes = self._inner.handle_request(data)
        if RelayEnvelope.decode(data).kind not in (
            MSG_KIND_QUERY_REQUEST,
            MSG_KIND_TRANSACT_REQUEST,
        ):
            return reply_bytes
        reply = RelayEnvelope.decode(reply_bytes)
        response = QueryResponse.decode(reply.payload)
        earlier = list(self.honest)
        self.honest.append(copy.deepcopy(response))
        if self._rewrite(response, earlier):
            self.rewritten += 1
        reply.payload = response.encode()
        return reply.encode()


def swap_result_and_metadata(response, earlier) -> bool:
    """The first peer's result box and metadata box trade places."""
    first = response.attestations[0]
    header = response.result_cipher[:ENVELOPE_HEADER]
    result_box = response.result_cipher[ENVELOPE_HEADER:]
    assert result_box[:EPHEMERAL] == first.metadata_cipher[:EPHEMERAL]
    response.result_cipher = header + first.metadata_cipher
    first.metadata_cipher = result_box
    return True


def result_box_as_metadata(response, earlier) -> bool:
    """The first peer's metadata slot carries its result box."""
    first = response.attestations[0]
    first.metadata_cipher = response.result_cipher[ENVELOPE_HEADER:]
    return True


def graft_ephemeral_key(response, earlier) -> bool:
    """Peer A's ephemeral key on peer B's metadata box."""
    a, b = response.attestations[:2]
    assert a.metadata_cipher[:EPHEMERAL] != b.metadata_cipher[:EPHEMERAL]
    b.metadata_cipher = a.metadata_cipher[:EPHEMERAL] + b.metadata_cipher[EPHEMERAL:]
    return True


def earlier_metadata_box(response, earlier) -> bool:
    """The first peer's metadata box from this relay's previous reply."""
    if not earlier:
        return False
    response.attestations[0].metadata_cipher = earlier[-1].attestations[0].metadata_cipher
    return True


def earlier_result_box(response, earlier) -> bool:
    """The result box from this relay's previous reply."""
    if not earlier:
        return False
    header = response.result_cipher[:ENVELOPE_HEADER]
    response.result_cipher = header + earlier[-1].result_cipher[ENVELOPE_HEADER:]
    return True


QUERY_REWRITES = [
    swap_result_and_metadata,
    result_box_as_metadata,
    graft_ephemeral_key,
    earlier_metadata_box,
]
# A repeated query's earlier result box holds the same data this reply's
# peers attest, so only a transaction, whose outcome names its own commit,
# can tell an earlier result box from the current one.
TRANSACTION_REWRITES = QUERY_REWRITES + [earlier_result_box]


def _warm_up(rewrite, send) -> None:
    """One honest exchange first, for rewrites that replay an earlier box."""
    if rewrite in (earlier_metadata_box, earlier_result_box):
        send()


@pytest.mark.parametrize("rewrite", QUERY_REWRITES, ids=lambda rewrite: rewrite.__name__)
@pytest.mark.parametrize("conformance_target", PLATFORMS, indirect=True)
def test_rewritten_query_reply_is_refused(conformance_target, rewrite):
    target = conformance_target

    def send():
        return target.client.remote_query(
            target.query_address, list(target.query_args), policy=target.policy
        )

    with interposed(target, lambda inner: ReplyRewritingRelay(inner, rewrite)) as relay:
        _warm_up(rewrite, send)
        with pytest.raises(ProofError):
            send()
    assert relay.rewritten == 1


@pytest.mark.parametrize(
    "rewrite", TRANSACTION_REWRITES, ids=lambda rewrite: rewrite.__name__
)
@pytest.mark.parametrize("conformance_target", ["fabric", "corda"], indirect=True)
def test_rewritten_transaction_reply_is_refused(conformance_target, rewrite):
    target = conformance_target
    sent = []

    def send():
        sent.append(f"REWRITE-{rewrite.__name__}-{len(sent)}")
        return target.client.remote_query(
            target.transact_address,
            target.transact_args(sent[-1]),
            policy=target.policy,
            invocation=INVOCATION_TRANSACTION,
        )

    with interposed(target, lambda inner: ReplyRewritingRelay(inner, rewrite)) as relay:
        _warm_up(rewrite, send)
        with pytest.raises(ProofError):
            send()
    assert relay.rewritten == 1


#: Outcomes a relay reseals to the client in place of the committed one.
RESEALED_OUTCOMES = {
    "not-utf8": b"\xff\xfe",
    "not-an-object": b"[1,2]",
    "mvcc-read-conflict": b'{"validation_code":"MVCC_READ_CONFLICT"}',
}


@pytest.mark.parametrize("name", list(RESEALED_OUTCOMES))
@pytest.mark.parametrize("conformance_target", ["fabric", "corda"], indirect=True)
def test_resealed_transaction_outcome_is_refused(conformance_target, name):
    """The write commits; the relay then reseals another outcome under the
    client's public key, which the request carries. The attestations do
    not cover it, whatever it parses as."""
    target = conformance_target
    client_key = target.client.identity.keypair.public

    def reseal(response, earlier) -> bool:
        response.result_cipher = seal_result(RESEALED_OUTCOMES[name], client_key, True)
        return True

    with interposed(target, lambda inner: ReplyRewritingRelay(inner, reseal)) as relay:
        with pytest.raises(ProofError, match="attested hash does not cover"):
            target.client.remote_query(
                target.transact_address,
                target.transact_args(f"RESEAL-{name}"),
                policy=target.policy,
                invocation=INVOCATION_TRANSACTION,
            )
    assert relay.rewritten == 1


@pytest.mark.parametrize("conformance_target", ["fabric", "corda"], indirect=True)
def test_reply_boxes_share_a_key_only_within_one_peer_reply(conformance_target):
    """Per reply, the result box shares the first peer's ephemeral key;
    no two peers' replies, and no two requests, share one."""
    target = conformance_target
    with interposed(target, lambda inner: ReplyRewritingRelay(inner, lambda *_: False)) as relay:
        for _ in range(2):
            target.client.remote_query(
                target.query_address, list(target.query_args), policy=target.policy
            )
        target.client.remote_query(
            target.transact_address,
            target.transact_args("SHARED-KEY-CHECK"),
            policy=target.policy,
            invocation=INVOCATION_TRANSACTION,
        )
    assert len(relay.honest) == 3
    metadata_keys = []
    for response in relay.honest:
        result_key = response.result_cipher[ENVELOPE_HEADER:][:EPHEMERAL]
        keys = [attestation.metadata_cipher[:EPHEMERAL] for attestation in response.attestations]
        assert keys[0] == result_key
        metadata_keys.extend(keys)
    assert len(set(metadata_keys)) == len(metadata_keys)


class TransactionReplyForgingRelay:
    """Answers a transaction with a commit that never happened.

    The outcome is re-sealed to the requester's public key (which every
    request carries), and each attestation is re-made over it: metadata
    naming the same peer and the same request, encrypted to the requester,
    under an all-zero signature. Only a signature check can tell.
    ``outcome`` replaces the well-formed forged outcome.
    """

    FORGED_TX_ID = "tx-never-committed"
    FORGED_BLOCK = 424242

    def __init__(self, inner, outcome: bytes | None = None) -> None:
        self._inner = inner
        self._scheme = AttestationProofScheme()
        self._outcome = outcome

    def handle_request(self, data: bytes) -> bytes:
        reply_bytes = self._inner.handle_request(data)
        request = RelayEnvelope.decode(data)
        if request.kind != MSG_KIND_TRANSACT_REQUEST:
            return reply_bytes
        query = NetworkQuery.decode(request.payload)
        reply = RelayEnvelope.decode(reply_bytes)
        response = QueryResponse.decode(reply.payload)
        client_key = PublicKey.from_bytes(query.auth.public_key)
        outcome = self._outcome or forged_outcome(
            result=b"forged".hex(), tx_id=self.FORGED_TX_ID, block_number=self.FORGED_BLOCK
        )
        envelope = seal_result(outcome, client_key, True)
        address = CrossNetworkAddress(
            query.address.network,
            query.address.ledger,
            query.address.contract,
            query.address.function,
        )
        forged = []
        for attestation in response.attestations:
            signer = SimpleNamespace(id=attestation.peer_id, org=attestation.org)
            metadata = self._scheme.build_metadata(
                signer, address.network, address, list(query.args), query.nonce, envelope, 0.0
            )
            forged.append(
                Attestation(
                    metadata_cipher=ecies_encrypt(client_key, metadata.encode()),
                    signature=bytes(64),
                    certificate=attestation.certificate,
                    peer_id=attestation.peer_id,
                    org=attestation.org,
                )
            )
        response.result_cipher = envelope
        response.attestations = forged
        reply.payload = response.encode()
        return reply.encode()


@pytest.mark.parametrize("conformance_target", ["fabric", "corda"], indirect=True)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 1: finalize_response verifies no attestation signature "
        "on a transaction"
    ),
)
def test_forged_transaction_reply_is_refused(conformance_target):
    target = conformance_target
    with interposed(target, TransactionReplyForgingRelay):
        try:
            result = target.client.remote_query(
                target.transact_address,
                target.transact_args(f"FORGED-{target.platform}"),
                policy=target.policy,
                invocation=INVOCATION_TRANSACTION,
            )
        except ProofError:
            return
    assert result.tx_id != TransactionReplyForgingRelay.FORGED_TX_ID, (
        f"a forged commit was accepted: {result}"
    )


def forged_outcome(**fields) -> bytes:
    """A committed outcome as the source seals it, with ``fields`` set;
    a field set to ``None`` is left out."""
    outcome = {
        "result": b"forged".hex(),
        "tx_id": TransactionReplyForgingRelay.FORGED_TX_ID,
        "block_number": TransactionReplyForgingRelay.FORGED_BLOCK,
        "validation_code": "VALID",
    }
    outcome.update(fields)
    return canonical_json({key: value for key, value in outcome.items() if value is not None})


#: Outcomes the attestations are re-made over, so only the outcome reader
#: stands between them and the application.
MALFORMED_OUTCOMES = {
    "not-utf8": (b"\xff\xfe", "not UTF-8 JSON"),
    "not-an-object": (b"[1,2]", "not a JSON object"),
    "not-committed": (forged_outcome(validation_code="MVCC_READ_CONFLICT"), "MVCC_READ_CONFLICT"),
    "no-tx-id": (forged_outcome(tx_id=None), "has no 'tx_id'"),
    "bad-hex": (forged_outcome(result="zz"), "not hex"),
    "non-integer-block": (forged_outcome(block_number="7"), "in block '7'"),
}


@pytest.mark.parametrize("name", list(MALFORMED_OUTCOMES))
@pytest.mark.parametrize("conformance_target", ["fabric", "corda"], indirect=True)
def test_malformed_attested_outcome_is_a_proof_error(conformance_target, name):
    target = conformance_target
    outcome, text = MALFORMED_OUTCOMES[name]
    with interposed(target, lambda inner: TransactionReplyForgingRelay(inner, outcome)):
        with pytest.raises(ProofError, match=re.escape(text)):
            target.client.remote_query(
                target.transact_address,
                target.transact_args(f"MALFORMED-{name}"),
                policy=target.policy,
                invocation=INVOCATION_TRANSACTION,
            )
