"""An unsatisfiable policy is refused in one walk of its tree.

The requester chooses the verification policy, and the source selects its
attesters before any access check. A selector that searched every subset
of an n-peer pool before giving up would let any requester buy 2ⁿ policy
evaluations with one request. Threshold trees have no negation, so if the
whole pool fails, every subset fails: the selector needs one walk. These
tests count leaf evaluations, not wall time, and stop a brute-force search
as soon as it overruns the budget.
"""

from __future__ import annotations

import pytest

from repro.fabric.policy import SignedBy, parse_endorsement_policy
from repro.interop.policy import OrgAttestation, PeerAttestation, parse_verification_policy

POOL_SIZE = 24
ATTESTERS = [(f"org{i}", f"peer0.org{i}") for i in range(POOL_SIZE)]
SIGNERS = [(f"org{i}", "peer") for i in range(POOL_SIZE)]


class BudgetExceeded(Exception):
    pass


@pytest.fixture()
def leaf_evaluations(monkeypatch):
    """Counts every leaf ``satisfied_by`` call; raises past 1,000 of them."""
    calls: list[object] = []
    for leaf in (OrgAttestation, PeerAttestation, SignedBy):

        def counting(self, members, _original=leaf.satisfied_by):
            calls.append(self)
            if len(calls) > 1_000:
                raise BudgetExceeded(f"{len(calls)} leaf evaluations and counting")
            return _original(self, members)

        monkeypatch.setattr(leaf, "satisfied_by", counting)
    return calls


@pytest.mark.parametrize(
    "expression, tree_size",
    [("org:nobody", 1), ("AND(org:org0, org:nobody)", 3)],
)
def test_unsatisfiable_verification_policy(leaf_evaluations, expression, tree_size):
    policy = parse_verification_policy(expression)
    assert policy.select_attesters(ATTESTERS) is None
    assert 0 < len(leaf_evaluations) <= 2 * tree_size


def test_unsatisfiable_endorsement_policy(leaf_evaluations):
    policy = parse_endorsement_policy("'nobody.peer'")
    assert policy.minimal_satisfying_orgs(SIGNERS) is None
    assert 0 < len(leaf_evaluations) <= 2
