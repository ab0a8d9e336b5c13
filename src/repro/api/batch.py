"""Pipelined execution: specs, handles, sets, and the batch executor.

The pipeline model: applications *submit* any number of queries and
transactions (getting a future-style handle each), and the whole set is
*flushed* in one go — members sharing a target network and a verb travel
in a single ``MSG_KIND_BATCH_REQUEST`` envelope, so N requests cost one
discovery lookup, one round-trip, and one failover loop per target and
verb instead of N. Queries go first. Transaction members are marked with
the wire-level ``invocation`` discriminator and served sequentially by
the source's transaction driver (commit ordering); query members fan
concurrently. No envelope mixes the two, so read-only envelopes stay
cacheable.

Partial-failure semantics hold end to end: one failed member (bad address,
denied access, unsatisfiable policy, driver error, invalidated commit)
surfaces on *its* handle; the rest complete normally. Only a
transport-level failure (no relay reachable for a target) poisons that
target's members.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import InteropError
from repro.ops.trace import ensure_trace
from repro.interop.client import (
    InteropClient,
    RemoteQueryResult,
    RemoteTransactionResult,
)
from repro.proto.address import parse_address
from repro.proto.messages import INVOCATION_QUERY, INVOCATION_TRANSACTION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.api.builder import QueryBuilder

logger = logging.getLogger("repro.api")


@dataclass
class QuerySpec:
    """One fully-specified member of a batch (what a builder produces).

    ``invocation`` is the wire's verb: a query by default, or
    :data:`~repro.proto.messages.INVOCATION_TRANSACTION`.
    """

    address: str
    args: list[str] = field(default_factory=list)
    policy: str | None = None
    confidential: bool = True
    invocation: str = INVOCATION_QUERY


class QueryHandle:
    """Future-style handle for one submitted query or transaction.

    ``result()`` flushes the owning :class:`QuerySet` on first use, then
    returns the :class:`RemoteQueryResult` (or, for a transaction, the
    :class:`RemoteTransactionResult` whose attestations cover the
    committed tx id and block) or re-raises the member's failure.
    ``exception()`` inspects the failure without raising.
    """

    def __init__(self, queryset: "QuerySet", spec: QuerySpec) -> None:
        self._queryset = queryset
        self.spec = spec
        self._done = False
        self._result: RemoteQueryResult | RemoteTransactionResult | None = None
        self._exception: BaseException | None = None

    def done(self) -> bool:
        return self._done

    def result(self) -> RemoteQueryResult | RemoteTransactionResult:
        if not self._done:
            self._queryset.flush()
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self) -> BaseException | None:
        if not self._done:
            self._queryset.flush()
        return self._exception

    def _resolve(
        self,
        result: RemoteQueryResult | RemoteTransactionResult | None,
        exception: BaseException | None,
    ) -> None:
        self._result = result
        self._exception = exception
        self._done = True


class QuerySet:
    """Queries and transactions flushed together as batch envelopes.

    Waiting on any member flushes the whole set. ``policy_cache``
    (optional) shares resolved CMDAC verification policies across sets —
    a :class:`~repro.api.GatewaySession` passes its own so every flush
    amortizes the lookup.
    """

    def __init__(
        self, client: InteropClient, policy_cache: dict[str, str] | None = None
    ) -> None:
        self._client = client
        self._policy_cache = policy_cache
        self._pending: list[QueryHandle] = []
        self._flushed = False

    @property
    def flushed(self) -> bool:
        """True once :meth:`flush` has run (until a new member is added)."""
        return self._flushed

    def query(self, address: str) -> "QueryBuilder":
        """Start a fluent query builder whose ``submit()`` lands in this set."""
        from repro.api.builder import QueryBuilder

        return QueryBuilder(self._client, address, queryset=self)

    def transact(self, address: str) -> "QueryBuilder":
        """Start a fluent transaction builder whose ``submit()`` lands in
        this set."""
        from repro.api.builder import QueryBuilder

        return QueryBuilder(
            self._client, address, queryset=self, invocation=INVOCATION_TRANSACTION
        )

    def add(self, spec: QuerySpec) -> QueryHandle:
        """Enqueue one spec; returns its handle (resolved on flush)."""
        handle = QueryHandle(self, spec)
        self._pending.append(handle)
        self._flushed = False
        return handle

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> tuple[QueryHandle, ...]:
        return tuple(self._pending)

    def flush(self) -> list[QueryHandle]:
        """Execute every pending member in batched envelopes.

        Returns the flushed handles (all resolved); never raises for a
        member failure — inspect each handle.
        """
        handles, self._pending = self._pending, []
        self._flushed = True
        if handles:
            BatchExecutor(self._client, policy_cache=self._policy_cache).execute(
                handles
            )
        return handles

    def results(self) -> list[RemoteQueryResult | RemoteTransactionResult]:
        """Flush and return every result, raising on the first failure."""
        return [handle.result() for handle in self.flush()]


class BatchExecutor:
    """Prepares, ships, and finalizes a set of handles.

    Amortizes per-target costs: the CMDAC verification-policy lookup is
    resolved once per target network (members with an explicit policy skip
    it), and members group per verb and target into single batch
    envelopes (:meth:`RelayService.remote_query_batch`), queries first.
    """

    def __init__(
        self, client: InteropClient, policy_cache: dict[str, str] | None = None
    ) -> None:
        self._client = client
        self._policy_cache = policy_cache

    def execute(self, handles: list[QueryHandle]) -> None:
        # One trace for the whole flush: every member batch envelope (and
        # the serving relays' logs) correlates to this flush call.
        with ensure_trace():
            self._execute_traced(handles)

    def _execute_traced(self, handles: list[QueryHandle]) -> None:
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("flushing query set", extra={"members": len(handles)})
        policy_cache = self._policy_cache if self._policy_cache is not None else {}
        groups: dict[tuple[bool, str], list[tuple[QueryHandle, object]]] = {}
        for handle in handles:
            spec = handle.spec
            try:
                policy = spec.policy
                if policy is None:
                    target = parse_address(spec.address).network
                    if target not in policy_cache:
                        policy_cache[target] = self._client.lookup_policy(target)
                    policy = policy_cache[target]
                prepared = self._client.prepare_query(
                    spec.address,
                    list(spec.args),
                    policy=policy,
                    confidential=spec.confidential,
                    invocation=spec.invocation,
                )
            except Exception as exc:  # noqa: BLE001 - resolves onto the handle
                handle._resolve(None, exc)
                continue
            key = (prepared.is_transaction, prepared.target_network)
            groups.setdefault(key, []).append((handle, prepared))
        # False sorts first: every query envelope leaves before any transaction.
        for key in sorted(groups, key=lambda key: key[0]):
            members = groups[key]
            try:
                responses = self._client.relay.remote_query_batch(
                    [prepared.query for _, prepared in members]
                )
            except InteropError as exc:
                for handle, _ in members:
                    handle._resolve(None, exc)
                continue
            for (handle, prepared), response in zip(members, responses):
                try:
                    handle._resolve(
                        self._client.finalize_response(prepared, response), None
                    )
                except Exception as exc:  # noqa: BLE001 - resolves onto the handle
                    handle._resolve(None, exc)
