"""One threshold-policy algebra for endorsement and verification policies.

Fabric requires "a subset of endorsers, selected through a predetermined
policy, to agree on the result" (§4.1). "The network requesting data must
be able to specify a policy for proofs (termed as Verification Policy)
that the source network will satisfy if possible" (§3.1); the paper's use
case requires "proof from a peer in both the Seller and Carrier
organizations" (§4.3). Both are a k-of-n tree over principals, written
in one grammar with two leaf vocabularies::

    policy := leaf | AND(policy, ...) | OR(policy, ...) | OutOf(n, policy, ...)
    leaf   := 'Org.role'        endorsement (repro.fabric.policy): a signer
                                from Org with role peer, client, admin,
                                orderer, or member (any role)
            | org:<org-id>      verification (repro.interop.policy): any
                                peer of the organization
            | peer:<peer-id>    verification: one specific peer

    AND('SellerOrg.peer', 'CarrierOrg.peer')
    OutOf(2, org:SellerOrg, org:CarrierOrg, peer:peer0.bank-org)

Combinator words are case-insensitive; ``expression()`` is the canonical
text, re-parses to itself byte for byte, and decides equality. A source
relay "orchestrates proof collection by selecting a set of peers to query
based on the verification policy it receives" (§4.3); a Fabric gateway
picks endorsers the same way (:meth:`Policy.select`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from repro.errors import ReproError


class Policy:
    """A leaf or threshold node over members: ``(org, role)`` endorsement
    signers or ``(org, peer_id)`` attesters."""

    def satisfied_by(self, members: Iterable[tuple[str, str]]) -> bool:
        """True iff the member set satisfies this policy."""
        raise NotImplementedError

    def expression(self) -> str:
        """Canonical source-text form (round-trips through the parser)."""
        raise NotImplementedError

    def leaves(self) -> Iterator[Policy]:
        """Every leaf of the tree, left to right."""
        yield self

    def select(self, available: Sequence[tuple[str, str]]) -> list[tuple[str, str]] | None:
        """The first smallest subset of ``available`` that satisfies the policy.

        Subsets are tried by size, then in pool order, so the choice is
        deterministic; ``None`` when none works. The tree has no negation,
        so it is monotone: if the whole pool fails, every subset fails, and
        one walk of the tree says so. A satisfiable policy is searched by
        brute force; policies and networks here are small.
        """
        pool = list(dict.fromkeys(available))
        if not self.satisfied_by(pool):
            return None
        for size in range(1, len(pool)):
            for subset in itertools.combinations(pool, size):
                if self.satisfied_by(subset):
                    return list(subset)
        return pool

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Policy) and self.expression() == other.expression()

    def __hash__(self) -> int:
        return hash(self.expression())


@dataclass(frozen=True, eq=False)
class Threshold(Policy):
    """At least ``threshold`` of ``children`` must be satisfied.

    ``AND`` is ``OutOf(len(children))`` and ``OR`` is ``OutOf(1)``; ``label``
    remembers which word wrote the node. One member may satisfy several
    children: the policy is over principals, not signature counts.
    """

    threshold: int
    children: tuple[Policy, ...]
    label: str = "OutOf"

    #: The vocabulary's error class, for a bad node or a malformed expression.
    error: ClassVar[type[ReproError]] = ReproError

    def __post_init__(self) -> None:
        if not self.children:
            raise self.error("policy combinator requires sub-policies")
        if not 1 <= self.threshold <= len(self.children):
            raise self.error(
                f"threshold {self.threshold} out of range for "
                f"{len(self.children)} sub-policies"
            )

    @classmethod
    def all_of(cls, *children: Policy) -> Threshold:
        return cls(len(children), children, label="AND")

    @classmethod
    def any_of(cls, *children: Policy) -> Threshold:
        return cls(1, children, label="OR")

    def satisfied_by(self, members: Iterable[tuple[str, str]]) -> bool:
        pool = list(members)
        return sum(child.satisfied_by(pool) for child in self.children) >= self.threshold

    def leaves(self) -> Iterator[Policy]:
        for child in self.children:
            yield from child.leaves()

    def expression(self) -> str:
        inner = ", ".join(child.expression() for child in self.children)
        if self.label in ("AND", "OR"):
            return f"{self.label}({inner})"
        return f"OutOf({self.threshold}, {inner})"


_TOKEN_RE = (
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<number>\d+)"
    r"|(?P<leaf>%s)|(?P<combinator>AND|OR|OutOf))"
)
_SHOWN = {"lparen": "'('", "rparen": "')'", "comma": "','", "end": "the end"}


class Grammar:
    """One leaf vocabulary: ``leaf_pattern`` matches a leaf token, ``leaf``
    builds a leaf from it, and ``node`` is the vocabulary's threshold node."""

    def __init__(
        self, leaf_pattern: str, leaf: Callable[[str], Policy], node: type[Threshold]
    ) -> None:
        self._token_re = re.compile(_TOKEN_RE % leaf_pattern, re.IGNORECASE)
        self.leaf = leaf
        self.node = node

    def parse(self, text: str) -> Policy:
        """Parse ``text``; a malformed expression raises ``node.error``."""
        if not (text and text.strip()):
            raise self.node.error("empty policy expression")
        return _Parser(self, text).parse()


class _Parser:
    """Recursive descent over the tokens of one expression."""

    def __init__(self, grammar: Grammar, text: str) -> None:
        self._grammar, self._text, self._error = grammar, text, grammar.node.error
        self._tokens: list[tuple[str, str]] = []
        position = 0
        while position < len(text):
            match = grammar._token_re.match(text, position)
            if match is None:
                raise self._error(f"unexpected character at position {position} in policy {text!r}")
            position = match.end()
            kind = match.lastgroup or ""
            self._tokens.append((kind, match.group(kind)))
        self._tokens.append(("end", ""))
        self._position = 0

    def _take(self, *expected: str) -> tuple[str, str]:
        kind, value = self._tokens[self._position]
        if kind not in expected:
            wanted = " or ".join(_SHOWN.get(name, f"a {name}") for name in expected)
            found = _SHOWN["end"] if kind == "end" else repr(value)
            raise self._error(f"expected {wanted}, found {found} in policy {self._text!r}")
        self._position += 1
        return kind, value

    def parse(self) -> Policy:
        policy = self._policy()
        self._take("end")
        return policy

    def _policy(self) -> Policy:
        kind, value = self._take("leaf", "combinator")
        if kind == "leaf":
            return self._grammar.leaf(value)
        word = value.upper()
        self._take("lparen")
        threshold = 0
        if word == "OUTOF":
            threshold = int(self._take("number")[1])
            self._take("comma")
        children = [self._policy()]
        while self._take("comma", "rparen")[0] == "comma":
            children.append(self._policy())
        node = self._grammar.node
        if word == "AND":
            return node.all_of(*children)
        if word == "OR":
            return node.any_of(*children)
        return node(threshold, tuple(children))
