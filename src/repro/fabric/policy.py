"""Endorsement policies: the ``Org.role`` vocabulary of :mod:`repro.policy`.

Policies use Fabric's expression syntax, e.g.
``OR('Org1.member', AND('Org2.peer', 'Org3.peer'))``. A principal is
``Org.role``, role one of ``peer``, ``client``, ``admin``, ``orderer`` or
``member`` (any role); a policy is evaluated over the (org, role) pairs
that signed, and ``minimal_satisfying_orgs`` picks the fewest endorsers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import EndorsementPolicyError
from repro.policy import Grammar, Policy, Threshold

_ROLES = {"peer", "client", "admin", "orderer", "member"}

Signer = tuple[str, str]  # (org_id, role)


class EndorsementPolicy(Policy):
    """A boolean predicate over sets of endorsement signers."""

    def principals(self) -> set[str]:
        """All ``Org.role`` principals mentioned anywhere in the policy."""
        return {leaf.expression().strip("'") for leaf in self.leaves()}

    minimal_satisfying_orgs = Policy.select


@dataclass(frozen=True, eq=False)
class SignedBy(EndorsementPolicy):
    """Leaf: a signature from a member of ``org`` with a matching role."""

    org: str
    role: str = "member"

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise EndorsementPolicyError(
                f"unknown role {self.role!r}; expected one of {sorted(_ROLES)}"
            )

    def satisfied_by(self, signers: Iterable[Signer]) -> bool:
        return any(
            org == self.org and self.role in ("member", role) for org, role in signers
        )

    def expression(self) -> str:
        return f"'{self.org}.{self.role}'"


class OutOf(Threshold, EndorsementPolicy):
    """At least ``threshold`` of the endorsement sub-policies must be satisfied."""

    error = EndorsementPolicyError


policy_and = OutOf.all_of
policy_or = OutOf.any_of


def _signed_by(token: str) -> SignedBy:
    org, dot, role = token.strip("'").rpartition(".")
    if not dot:
        raise EndorsementPolicyError(f"principal {token} must have the form 'Org.role'")
    return SignedBy(org, role)


_GRAMMAR = Grammar(r"'[^']+'", _signed_by, OutOf)


def parse_endorsement_policy(text: str) -> EndorsementPolicy:
    """Parse e.g. ``OutOf(2, 'A.peer', 'B.peer', 'C.peer')``."""
    return _GRAMMAR.parse(text)
