"""Characterisation of both policy languages: endorsement and verification.

Fabric endorsement policies (``'Org.role'`` principals) and verification
policies (``org:`` / ``peer:`` leaves) are the same k-of-n threshold
algebra over two leaf vocabularies. This file pins what each language
does today, so any restructuring of the algebra must keep it:

- **corpus**: every concrete policy literal in ``src/``, ``tests/``,
  ``benchmarks/`` and ``examples/`` (templated ones with their values
  filled in), with its canonical ``expression()`` pinned verbatim, and
  ``parse(expression())`` reproducing that text byte for byte;
- **round-trip**: random trees of depth ≤ 3 over AND, OR and ``OutOf``
  in both vocabularies re-parse to an equal tree that agrees on
  ``satisfied_by``;
- **selections**: the exact ordered list the selector returns for a set
  of (expression, pool) pairs, ties included — which peers endorse or
  attest follows from this order;
- **malformed input**: the exact error class each parser raises,
  cross-vocabulary input included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EndorsementPolicyError, PolicyError
from repro.fabric.policy import (
    OutOf,
    SignedBy,
    parse_endorsement_policy,
    policy_and,
    policy_or,
)
from repro.interop.policy import (
    OrgAttestation,
    PeerAttestation,
    ThresholdPolicy,
    parse_verification_policy,
    policy_all_of,
    policy_any_of,
)

# -- corpus: source literal -> canonical expression() -------------------------------

ENDORSEMENT_CORPUS = {
    "'org1.peer'": "'org1.peer'",
    "AND('a.peer', 'b.peer')": "AND('a.peer', 'b.peer')",
    "AND('org1.peer', 'org2.peer')": "AND('org1.peer', 'org2.peer')",
    "OR('org1.peer', 'org2.peer')": "OR('org1.peer', 'org2.peer')",
    "AND('Org1.peer', 'Org2.peer')": "AND('Org1.peer', 'Org2.peer')",
    "AND('SellerOrg.peer', 'CarrierOrg.peer')": "AND('SellerOrg.peer', 'CarrierOrg.peer')",
    "OR('Org1.member', AND('Org2.peer', 'Org3.peer'))": (
        "OR('Org1.member', AND('Org2.peer', 'Org3.peer'))"
    ),
    "OutOf(2, 'Org1.peer', 'Org2.peer', 'Org3.peer')": (
        "OutOf(2, 'Org1.peer', 'Org2.peer', 'Org3.peer')"
    ),
    "OutOf(2, 'A.peer', 'B.peer', 'C.peer')": "OutOf(2, 'A.peer', 'B.peer', 'C.peer')",
    "OutOf(2, 'a.peer', 'b.peer', 'c.peer')": "OutOf(2, 'a.peer', 'b.peer', 'c.peer')",
    "OutOf(2, 'a.peer', AND('b.peer', 'c.admin'), 'd.member')": (
        "OutOf(2, 'a.peer', AND('b.peer', 'c.admin'), 'd.member')"
    ),
    "OR('a.member', AND('b.peer', 'c.peer'))": "OR('a.member', AND('b.peer', 'c.peer'))",
    "AND('seller-org.peer', 'carrier-org.peer')": "AND('seller-org.peer', 'carrier-org.peer')",
    "AND('buyer-bank-org.peer', 'seller-bank-org.peer')": (
        "AND('buyer-bank-org.peer', 'seller-bank-org.peer')"
    ),
    "AND('producer-org.peer', 'auditor-org.peer')": (
        "AND('producer-org.peer', 'auditor-org.peer')"
    ),
    "AND('traders-org.peer', 'audit-org.peer')": "AND('traders-org.peer', 'audit-org.peer')",
    "AND('trace-org-a.peer', 'trace-org-b.peer')": (
        "AND('trace-org-a.peer', 'trace-org-b.peer')"
    ),
    "AND('conf-org-a.peer', 'conf-org-b.peer')": "AND('conf-org-a.peer', 'conf-org-b.peer')",
    "AND('org0.peer', 'org1.peer', 'org2.peer', 'org3.peer')": (
        "AND('org0.peer', 'org1.peer', 'org2.peer', 'org3.peer')"
    ),
    # a one-org network's consortium policy, and a one-child AND
    "'stl.peer'": "'stl.peer'",
    "AND('a-org.peer')": "AND('a-org.peer')",
    # spellings the tokenizer accepts and canonicalises
    "and('a.peer','b.peer')": "AND('a.peer', 'b.peer')",
    "  or( 'a.admin' ,  'b.client' )": "OR('a.admin', 'b.client')",
    "outof(1, 'a.orderer', 'b.member')": "OutOf(1, 'a.orderer', 'b.member')",
    "OutOf(2, 'a.peer', 'b.peer')": "OutOf(2, 'a.peer', 'b.peer')",
    "'dotted.org.name.peer'": "'dotted.org.name.peer'",
}

VERIFICATION_CORPUS = {
    "org:seller-org": "org:seller-org",
    "org:carrier-org": "org:carrier-org",
    "org:x": "org:x",
    "org:op-org-1": "org:op-org-1",
    "org:op-org-2": "org:op-org-2",
    "org:nodeA": "org:nodeA",
    "org:foreign-org": "org:foreign-org",
    "org:rogue-org": "org:rogue-org",
    "org:org0": "org:org0",
    "org:only": "org:only",
    "org:mars-org": "org:mars-org",
    "org:bank-org": "org:bank-org",
    "peer:peer1.carrier-org": "peer:peer1.carrier-org",
    "peer:peer0.carrier-org": "peer:peer0.carrier-org",
    "AND(org:seller-org, org:carrier-org)": "AND(org:seller-org, org:carrier-org)",
    "AND(org:SellerOrg, org:CarrierOrg)": "AND(org:SellerOrg, org:CarrierOrg)",
    "AND(org:buyer-bank-org, org:seller-bank-org)": (
        "AND(org:buyer-bank-org, org:seller-bank-org)"
    ),
    "AND(org:op-org-1, org:op-org-2)": "AND(org:op-org-1, org:op-org-2)",
    "AND(org:traders-org, org:audit-org)": "AND(org:traders-org, org:audit-org)",
    "AND(org:nodeA, org:nodeB)": "AND(org:nodeA, org:nodeB)",
    "AND(org:nodeA, org:notary-org)": "AND(org:nodeA, org:notary-org)",
    "AND(org:a, org:b)": "AND(org:a, org:b)",
    "AND(org:carol, org:dana)": "AND(org:carol, org:dana)",
    "AND(org:producer-org, org:auditor-org)": "AND(org:producer-org, org:auditor-org)",
    "AND(org:dealer-org, org:exchange-org)": "AND(org:dealer-org, org:exchange-org)",
    "AND(org:trace-org-a, org:trace-org-b)": "AND(org:trace-org-a, org:trace-org-b)",
    "AND(org:pub-org-1, org:pub-org-2)": "AND(org:pub-org-1, org:pub-org-2)",
    "AND(org:org-a-0, org:org-b-0)": "AND(org:org-a-0, org:org-b-0)",
    "AND(org:operator-1, org:operator-2)": "AND(org:operator-1, org:operator-2)",
    "AND(org:conf-org-a, org:conf-org-b)": "AND(org:conf-org-a, org:conf-org-b)",
    "AND(org:carrier-org, peer:peer0.seller-org)": (
        "AND(org:carrier-org, peer:peer0.seller-org)"
    ),
    "AND(org:org0, org:org1, org:org2, org:org3)": (
        "AND(org:org0, org:org1, org:org2, org:org3)"
    ),
    "OR(org:seller-org, org:carrier-org)": "OR(org:seller-org, org:carrier-org)",
    "OR(org:a, org:b)": "OR(org:a, org:b)",
    "OR(AND(org:a, org:b), peer:special.c)": "OR(AND(org:a, org:b), peer:special.c)",
    "OutOf(2, org:A, org:B, org:C)": "OutOf(2, org:A, org:B, org:C)",
    "OutOf(2, org:a, org:b, org:c)": "OutOf(2, org:a, org:b, org:c)",
    "OutOf(2, org:a, AND(org:b, peer:p0.c), org:d)": (
        "OutOf(2, org:a, AND(org:b, peer:p0.c), org:d)"
    ),
    "OutOf(2, org:seller-org, org:carrier-org, peer:peer1.carrier-org)": (
        "OutOf(2, org:seller-org, org:carrier-org, peer:peer1.carrier-org)"
    ),
    "OutOf(2, org:org0, org:org1, org:org2, org:org3)": (
        "OutOf(2, org:org0, org:org1, org:org2, org:org3)"
    ),
    # spellings the tokenizer accepts and canonicalises
    "and(org:a,org:b)": "AND(org:a, org:b)",
    "  Or( ORG:a ,  Peer:p0.b )": "OR(org:a, peer:p0.b)",
    "outof(1, org:a)": "OutOf(1, org:a)",
    "AND(org:a)": "AND(org:a)",
    "peer:unqualified": "peer:unqualified",
}


@pytest.mark.parametrize("source", sorted(ENDORSEMENT_CORPUS))
def test_endorsement_corpus(source):
    expression = ENDORSEMENT_CORPUS[source]
    policy = parse_endorsement_policy(source)
    assert policy.expression() == expression
    again = parse_endorsement_policy(expression)
    assert again.expression() == expression
    assert again == policy


@pytest.mark.parametrize("source", sorted(VERIFICATION_CORPUS))
def test_verification_corpus(source):
    expression = VERIFICATION_CORPUS[source]
    policy = parse_verification_policy(source)
    assert policy.expression() == expression
    again = parse_verification_policy(expression)
    assert again.expression() == expression
    assert again == policy


# -- hypothesis round-trip -----------------------------------------------------------

ORGS = ["a", "b", "org-1", "Org_2", "x.y"]
ROLES = ["peer", "client", "admin", "orderer", "member"]
PEERS = [f"{name}.{org}" for name in ("p0", "p1") for org in ORGS] + ["solo"]


def trees(leaf, combine, depth: int = 3):
    """Policy trees of depth ≤ ``depth``: a leaf, or AND / OR / ``OutOf``
    over one to three subtrees. ``combine(kind, k, children)`` builds a node."""
    if depth == 0:
        return leaf
    children = st.lists(trees(leaf, combine, depth - 1), min_size=1, max_size=3)
    return st.one_of(
        leaf,
        children.map(lambda kids: combine("AND", len(kids), kids)),
        children.map(lambda kids: combine("OR", 1, kids)),
        children.flatmap(
            lambda kids: st.integers(1, len(kids)).map(
                lambda k: combine("OutOf", k, kids)
            )
        ),
    )


def endorsement_node(kind, k, kids):
    if kind == "AND":
        return policy_and(*kids)
    if kind == "OR":
        return policy_or(*kids)
    return OutOf(k, tuple(kids))


def verification_node(kind, k, kids):
    if kind == "AND":
        return policy_all_of(*kids)
    if kind == "OR":
        return policy_any_of(*kids)
    return ThresholdPolicy(k, tuple(kids))


ENDORSEMENT_TREES = trees(
    st.builds(SignedBy, st.sampled_from(ORGS), st.sampled_from(ROLES)), endorsement_node
)
VERIFICATION_TREES = trees(
    st.one_of(
        st.builds(OrgAttestation, st.sampled_from(ORGS)),
        st.builds(PeerAttestation, st.sampled_from(PEERS)),
    ),
    verification_node,
)
SIGNER_SETS = st.lists(st.tuples(st.sampled_from(ORGS), st.sampled_from(ROLES)), max_size=6)
ATTESTER_SETS = st.lists(
    st.sampled_from(PEERS).map(lambda peer: (peer.partition(".")[2] or "a", peer)),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(policy=ENDORSEMENT_TREES, signer_sets=st.lists(SIGNER_SETS, max_size=4))
def test_endorsement_trees_round_trip(policy, signer_sets):
    expression = policy.expression()
    again = parse_endorsement_policy(expression)
    assert again.expression() == expression
    assert again == policy
    for signers in signer_sets:
        assert again.satisfied_by(signers) == policy.satisfied_by(signers)


@settings(max_examples=150, deadline=None)
@given(policy=VERIFICATION_TREES, attester_sets=st.lists(ATTESTER_SETS, max_size=4))
def test_verification_trees_round_trip(policy, attester_sets):
    expression = policy.expression()
    again = parse_verification_policy(expression)
    assert again.expression() == expression
    assert again == policy
    for attesters in attester_sets:
        assert again.satisfied_by(attesters) == policy.satisfied_by(attesters)


# -- pinned selections -----------------------------------------------------------------

TRADE_PEERS = [
    ("seller-org", "peer0.seller-org"),
    ("carrier-org", "peer0.carrier-org"),
    ("carrier-org", "peer1.carrier-org"),
]
CORDA_PEERS = [
    ("nodeA", "nodeA.nodeA"),
    ("nodeB", "nodeB.nodeB"),
    ("notary-org", "notary.notary-org"),
]

VERIFICATION_SELECTIONS = [
    # the §4.3 policy: one seller peer, then the first of two carrier peers
    (
        "AND(org:seller-org, org:carrier-org)",
        TRADE_PEERS,
        [("seller-org", "peer0.seller-org"), ("carrier-org", "peer0.carrier-org")],
    ),
    ("org:carrier-org", TRADE_PEERS, [("carrier-org", "peer0.carrier-org")]),
    ("OR(org:seller-org, org:carrier-org)", TRADE_PEERS, [("seller-org", "peer0.seller-org")]),
    ("peer:peer1.carrier-org", TRADE_PEERS, [("carrier-org", "peer1.carrier-org")]),
    (
        "OutOf(2, org:seller-org, org:carrier-org, peer:peer1.carrier-org)",
        TRADE_PEERS,
        [("carrier-org", "peer1.carrier-org")],
    ),
    (
        "AND(org:carrier-org, peer:peer0.seller-org)",
        TRADE_PEERS,
        [("seller-org", "peer0.seller-org"), ("carrier-org", "peer0.carrier-org")],
    ),
    # pool order decides between the two carrier peers
    ("org:carrier-org", list(reversed(TRADE_PEERS)), [("carrier-org", "peer1.carrier-org")]),
    # duplicates in the pool count once
    (
        "AND(org:seller-org, org:carrier-org)",
        [TRADE_PEERS[1], TRADE_PEERS[1], TRADE_PEERS[0]],
        [("carrier-org", "peer0.carrier-org"), ("seller-org", "peer0.seller-org")],
    ),
    # the Corda notary attests like any node, in pool order
    (
        "AND(org:nodeA, org:notary-org)",
        CORDA_PEERS,
        [("nodeA", "nodeA.nodeA"), ("notary-org", "notary.notary-org")],
    ),
    ("OR(org:notary-org, org:nodeB)", CORDA_PEERS, [("nodeB", "nodeB.nodeB")]),
    ("OutOf(2, org:nodeA, org:nodeB, org:notary-org)", CORDA_PEERS, CORDA_PEERS[:2]),
    ("org:nobody", TRADE_PEERS, None),
    ("AND(org:seller-org, org:nobody)", TRADE_PEERS, None),
    ("org:seller-org", [], None),
]

ENDORSEMENT_SELECTIONS = [
    (
        "AND('a.peer', 'b.peer')",
        [("a", "peer"), ("b", "peer"), ("c", "peer")],
        [("a", "peer"), ("b", "peer")],
    ),
    ("'a.member'", [("a", "client"), ("a", "peer")], [("a", "client")]),
    (
        "OutOf(2, 'a.peer', 'b.peer', 'c.peer')",
        [("c", "peer"), ("b", "peer"), ("a", "peer")],
        [("c", "peer"), ("b", "peer")],
    ),
    (
        "AND('a.peer', 'b.peer')",
        [("a", "peer"), ("a", "peer"), ("b", "peer")],
        [("a", "peer"), ("b", "peer")],
    ),
    ("OR('a.admin', 'b.peer')", [("a", "peer"), ("b", "peer")], [("b", "peer")]),
    ("'z.peer'", [("a", "peer")], None),
]


@pytest.mark.parametrize("expression, pool, selection", VERIFICATION_SELECTIONS)
def test_verification_selection(expression, pool, selection):
    assert parse_verification_policy(expression).select_attesters(pool) == selection


@pytest.mark.parametrize("expression, pool, selection", ENDORSEMENT_SELECTIONS)
def test_endorsement_selection(expression, pool, selection):
    assert parse_endorsement_policy(expression).minimal_satisfying_orgs(pool) == selection


# -- malformed input ---------------------------------------------------------------------

MALFORMED_ENDORSEMENT = [
    "",
    "   ",
    "AND(",
    "AND()",
    "AND('a.peer',)",
    "AND('a.peer' 'b.peer')",
    "'noRole'",
    "'a.wizard'",
    "'a.PEER'",
    "XOR('a.peer')",
    "OutOf(0, 'a.peer')",
    "OutOf(5, 'a.peer')",
    "OutOf('a.peer')",
    "OutOf(2 'a.peer', 'b.peer')",
    "'a.peer' 'b.peer'",
    "2",
    ")",
    # the other vocabulary
    "org:a",
    "peer:p0.a",
    "AND(org:a, org:b)",
]

MALFORMED_VERIFICATION = [
    "",
    "   ",
    "org:",
    "peer:",
    "AND()",
    "AND(org:a",
    "AND(org:a,)",
    "AND(org:a org:b)",
    "NOT(org:a)",
    "OutOf(0, org:a)",
    "OutOf(9, org:a)",
    "OutOf(org:a)",
    "org:a extra",
    "org:a org:b",
    "peer:p; DROP TABLE",
    "7",
    "(",
    "bank:a",
    # the other vocabulary
    "'a.peer'",
    "AND('a.peer', 'b.peer')",
]


@pytest.mark.parametrize("text", MALFORMED_ENDORSEMENT)
def test_malformed_endorsement_policy(text):
    with pytest.raises(EndorsementPolicyError) as caught:
        parse_endorsement_policy(text)
    assert type(caught.value) is EndorsementPolicyError


@pytest.mark.parametrize("text", MALFORMED_VERIFICATION)
def test_malformed_verification_policy(text):
    with pytest.raises(PolicyError) as caught:
        parse_verification_policy(text)
    assert type(caught.value) is PolicyError
