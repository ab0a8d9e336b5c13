"""Verification policies: the ``org:`` / ``peer:`` vocabulary of :mod:`repro.policy`.

A verification policy names which source-network units must attest to a
result: ``org:<org-id>`` (any peer of the organization) or
``peer:<peer-id>`` (one specific peer), e.g. the paper's
``AND(org:SellerOrg, org:CarrierOrg)`` (§4.3). Policies both *select* the
peers a source relay queries (:func:`attesters_for`) and *validate* the
attestations a destination receives. The expression string is the wire
form (:class:`repro.proto.VerificationPolicyMsg`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import PolicyError
from repro.policy import Grammar, Policy, Threshold
from repro.proto.messages import VerificationPolicyMsg

Attester = tuple[str, str]  # (org_id, peer_id)


class VerificationPolicy(Policy):
    """A predicate over sets of attesting source-network peers."""

    def mentioned_orgs(self) -> set[str]:
        """Every organization the policy references (directly or via peers)."""
        return {org for leaf in self.leaves() for org in leaf.mentioned_orgs()}

    select_attesters = Policy.select


@dataclass(frozen=True, eq=False)
class OrgAttestation(VerificationPolicy):
    """Leaf: an attestation from any peer of ``org``."""

    org: str

    def satisfied_by(self, attesters: Iterable[Attester]) -> bool:
        return any(org == self.org for org, _ in attesters)

    def expression(self) -> str:
        return f"org:{self.org}"

    def mentioned_orgs(self) -> set[str]:
        return {self.org}


@dataclass(frozen=True, eq=False)
class PeerAttestation(VerificationPolicy):
    """Leaf: an attestation from one specific peer (``peer_id``)."""

    peer_id: str

    def satisfied_by(self, attesters: Iterable[Attester]) -> bool:
        return any(peer == self.peer_id for _, peer in attesters)

    def expression(self) -> str:
        return f"peer:{self.peer_id}"

    def mentioned_orgs(self) -> set[str]:
        # peer ids are qualified as name.org; tolerate unqualified ids.
        return {self.peer_id.split(".", 1)[1]} if "." in self.peer_id else set()


class ThresholdPolicy(Threshold, VerificationPolicy):
    """At least ``threshold`` of ``children`` must be satisfied."""

    error = PolicyError


policy_all_of = ThresholdPolicy.all_of
policy_any_of = ThresholdPolicy.any_of


def _attestation(token: str) -> VerificationPolicy:
    scheme, _, name = token.partition(":")
    return OrgAttestation(name) if scheme.lower() == "org" else PeerAttestation(name)


_GRAMMAR = Grammar(r"(?:org|peer):[A-Za-z0-9_.\-]+", _attestation, ThresholdPolicy)


def parse_verification_policy(text: str) -> VerificationPolicy:
    """Parse e.g. ``OutOf(2, org:A, org:B, peer:peer0.carrier-org)``."""
    return _GRAMMAR.parse(text)


def attesters_for(
    policy: VerificationPolicyMsg | None, available: Sequence[Attester], network_id: str
) -> list[Attester]:
    """The peers of ``available`` that attest to one request (§4.3).

    Every driver calls this before any side effect. It raises
    :class:`PolicyError` with one text per cause: the request carries no
    policy, the policy is malformed, or it cannot be satisfied.
    """
    if policy is None or not policy.expression:
        raise PolicyError("request carries no verification policy")
    try:
        parsed = parse_verification_policy(policy.expression)
    except PolicyError as exc:
        raise PolicyError(f"malformed verification policy: {exc}") from exc
    selection = parsed.select_attesters(available)
    if selection is None:
        raise PolicyError(
            f"verification policy {parsed.expression()} cannot be satisfied by "
            f"the attesters of network {network_id!r}"
        )
    return selection


def all_orgs_policy(orgs: Iterable[str]) -> VerificationPolicy:
    """Require an attestation from every listed organization: the strictest
    policy a fully-endorsed network supports, and the starting point for the
    "optimal verification policy" the paper leaves to future work (§7)."""
    leaves = [OrgAttestation(org) for org in sorted(set(orgs))]
    if not leaves:
        raise PolicyError("cannot build a policy over zero organizations")
    return leaves[0] if len(leaves) == 1 else policy_all_of(*leaves)
