"""Cross-driver conformance: every gateway verb, under every fault plan.

The paper claims its protocol survives an untrusted relay (§4–§5) and
generalizes across heterogeneous platforms (§5) — but a claim that is
only ever exercised on one platform and one verb is folklore, not
conformance. :class:`DriverConformanceSuite` makes the claim testable for
*any* :class:`~repro.interop.drivers.base.NetworkDriver`: it drives the
full gateway verb surface — query, batched query, transact, subscribe,
and HTLC asset commands — against one source network while a seeded
:class:`~repro.testing.faults.ChaosEndpoint` injects faults into the
communication path, and asserts the protocol invariants:

- **verified or typed-failure** — a verb either completes with data that
  passes proof verification, or raises a typed protocol error; wrong data
  is never silently accepted;
- **exactly-once side effects** — transactions, asset commands, and event
  deliveries do not double-execute under duplication, reordering, or
  crash-restart of the reply path (the relay's request-id idempotency);
- **failover engages** — with a redundant endpoint present, transport
  faults are survived by failing over, not by erroring out;
- **bounded retries** — a failing endpoint is tried at most once per
  round, never spun on;
- **fail-closed capabilities** — a verb the driver does not support
  raises :class:`~repro.errors.UnsupportedCapabilityError` (typed, final)
  rather than half-executing.

Every scenario is reproducible from one integer seed; conformance
violations raise :class:`ConformanceError` with the seed, verb, and plan
in the message.

Quickstart against a custom driver::

    target = ConformanceTarget(
        platform="mynet", network_id="mynet",
        client=dest_client, registry=registry, relay=source_relay,
        policy="AND(org:a, org:b)",
        query_address="mynet/ledger/contract/Get", query_args=["DOC-1"],
        expected_query=lambda data: b"DOC-1" in data,
        ...  # transact/event/asset hooks for the capabilities you support
    )
    report = DriverConformanceSuite(target, seed=7).run()
    print(report.summary())
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import (
    ReproError,
    UnsupportedCapabilityError,
)
from repro.interop.client import InteropClient
from repro.interop.discovery import InMemoryRegistry
from repro.interop.relay import RelayService
from repro.ops.logging import capture_logs
from repro.ops.trace import activate, new_trace
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_STATUS,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_TRANSACT_REQUEST,
    PROTOCOL_VERSION,
    STATUS_OK,
    AssetCommandMsg,
    NetworkAddressMsg,
)
from repro.store import StateStore
from repro.testing.faults import (
    ALL_FAULT_KINDS,
    FAULT_CRASH_RESTART,
    FAULT_PARTITION,
    FAULT_TAMPER_PROOF,
    ChaosEndpoint,
    FaultPlan,
    FaultSpec,
    TAMPER_FAULT_KINDS,
    TRANSPORT_FAULT_KINDS,
)
from repro.utils.ids import random_id

VERB_QUERY = "query"
VERB_BATCH = "batch"
VERB_TRANSACT = "transact"
VERB_SUBSCRIBE = "subscribe"
VERB_ASSETS = "assets"

#: The full gateway verb surface the matrix exercises.
ALL_VERBS = (VERB_QUERY, VERB_BATCH, VERB_TRANSACT, VERB_SUBSCRIBE, VERB_ASSETS)

#: Scenario outcomes.
OUTCOME_SERVED = "served"  # verb completed with verified data
OUTCOME_DEGRADED = "degraded"  # typed failure, invariants intact
OUTCOME_FAIL_CLOSED = "fail-closed"  # unsupported capability, typed refusal


class ConformanceError(AssertionError):
    """A protocol invariant was violated; the message carries the seed."""

    def __init__(self, message: str, seed: int, verb: str, plan: str) -> None:
        super().__init__(
            f"[conformance seed={seed} verb={verb} plan={plan}] {message}"
        )
        self.seed = seed
        self.verb = verb
        self.plan = plan


@dataclass(frozen=True)
class ScenarioOutcome:
    """One (verb, plan) cell of the matrix."""

    verb: str
    plan: str
    seed: int
    outcome: str
    detail: str = ""
    injections: dict = field(default_factory=dict)


@dataclass
class ConformanceReport:
    """The matrix result for one target."""

    platform: str
    seed: int
    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        return sum(1 for cell in self.outcomes if cell.outcome == outcome)

    def summary(self) -> str:
        lines = [
            f"conformance: {self.platform} seed={self.seed} "
            f"({self.count(OUTCOME_SERVED)} served, "
            f"{self.count(OUTCOME_DEGRADED)} degraded, "
            f"{self.count(OUTCOME_FAIL_CLOSED)} fail-closed)"
        ]
        for cell in self.outcomes:
            lines.append(
                f"  {cell.verb:<10} x {cell.plan:<16} -> {cell.outcome}"
                + (f" ({cell.detail})" if cell.detail else "")
            )
        return "\n".join(lines)


def default_fault_plans(seed: int) -> list[FaultPlan]:
    """One plan per fault kind, all derived from one seed.

    Eight distinct plans (≥ the six the matrix guarantees); tamper-proof
    is scoped to the kinds that carry attestations, partition opens one
    three-request outage, crash-restart fires once.
    """
    plans: list[FaultPlan] = []
    for offset, kind in enumerate(ALL_FAULT_KINDS):
        spec_kwargs: dict = {}
        if kind == FAULT_PARTITION:
            spec_kwargs = {"duration": 3, "max_injections": 1}
        elif kind == FAULT_CRASH_RESTART:
            spec_kwargs = {"max_injections": 1}
        elif kind == FAULT_TAMPER_PROOF:
            spec_kwargs = {
                "only_kinds": frozenset(
                    {MSG_KIND_QUERY_REQUEST, MSG_KIND_TRANSACT_REQUEST}
                )
            }
        plans.append(FaultPlan.single(kind, seed + offset, **spec_kwargs))
    return plans


@contextmanager
def chaos_topology(
    registry: InMemoryRegistry,
    network_ids: Sequence[str],
    plan: FaultPlan,
    clock=None,
    redundant: bool = True,
):
    """Interpose a chaos endpoint in front of each network's relay.

    Each network's first registered endpoint is wrapped with a fresh fork
    of ``plan``; with ``redundant`` the clean endpoint stays registered
    *behind* the chaotic one, modeling the paper's redundant-relay
    failover (same relay, second path — so request-id idempotency holds
    across the failover). Restores the original registrations on exit.
    Yields ``{network_id: ChaosEndpoint}``.
    """
    originals: dict[str, list] = {}
    wrappers: dict[str, ChaosEndpoint] = {}
    for network_id in network_ids:
        endpoints = registry.lookup(network_id)
        originals[network_id] = endpoints
        wrapper = ChaosEndpoint(endpoints[0], plan.fork(), clock=clock)
        wrappers[network_id] = wrapper
        for endpoint in endpoints:
            registry.unregister(network_id, endpoint)
        registry.register(network_id, wrapper)
        if redundant:
            registry.register(network_id, endpoints[0])
    try:
        yield wrappers
    finally:
        for network_id, endpoints in originals.items():
            for endpoint in list(registry.lookup(network_id)):
                registry.unregister(network_id, endpoint)
            for endpoint in endpoints:
                registry.register(network_id, endpoint)


def restart_relay(
    target: "ConformanceTarget",
    store: "StateStore | None" = None,
    recover: bool = True,
) -> RelayService:
    """Model an OS-level crash + restart of the target's *source* relay.

    The old :class:`RelayService` object is discarded wholesale (nothing
    in-memory survives, exactly like a killed process); a fresh one is
    built with the same identity, capacity, drivers, and interceptor
    chain — the things an application re-creates at boot — registered in
    the discovery registry in the old one's place, and installed as
    ``target.relay``.

    ``store`` selects what survives: ``None`` restarts with implicit
    empty state (the pre-durability behavior, still the MemoryStore
    default — kept expressible so the old fail-closed assertions stay
    tested), while passing the crashed relay's re-opened
    :class:`~repro.store.StateStore` restarts *with* durable state.
    ``recover`` additionally re-opens persisted event taps
    (:meth:`RelayService.recover`).
    """
    crashed = target.relay
    # The crash kills the process's live hub hooks: close the crashed
    # relay's event taps on the (surviving, shared) driver objects, or
    # their push closures would keep feeding subscribers from beyond the
    # grave and recovery would double-deliver.
    for record in list(crashed._served_subscriptions.values()):
        if record.tap is not None:
            try:
                record.driver.close_event_tap(record.tap)
            except Exception:  # noqa: BLE001 - a half-dead tap is already what the crash model wants
                pass
    restarted = RelayService(
        crashed.network_id,
        crashed._discovery,
        clock=crashed._clock,
        relay_id=crashed.relay_id,
        store=store,
        idempotency_capacity=crashed.idempotency_capacity,
    )
    # Drivers are process objects the app re-registers at boot; keep the
    # same instances.
    for network_id, driver in crashed._drivers.items():
        restarted._drivers[network_id] = driver
    if crashed.interceptors:
        restarted.use(*crashed.interceptors)
    registry = target.registry
    for endpoint in list(registry.lookup(target.network_id)):
        if endpoint is crashed:
            registry.unregister(target.network_id, endpoint)
    registry.register(target.network_id, restarted)
    target.relay = restarted
    if recover:
        restarted.recover()
    return restarted


@dataclass
class ConformanceTarget:
    """Everything the suite needs to drive one source network.

    ``client`` is a destination-side :class:`InteropClient` whose relay
    reaches the source network through ``registry``; ``relay`` is the
    *source* network's relay (whose driver capabilities decide which
    verbs must conform and which must fail closed). The per-verb hooks
    parameterize platform differences: fresh transact arguments per
    scenario tag, a server-side commit counter, an event trigger, asset
    issuance, and a server-side lock reader (ledger truth for the
    exactly-once assertions).
    """

    platform: str
    network_id: str
    client: InteropClient
    registry: InMemoryRegistry
    relay: RelayService
    policy: str
    query_address: str
    query_args: list[str]
    expected_query: Callable[[bytes], bool]
    clock: object | None = None
    destination_network_id: str = ""
    # -- transact hooks
    transact_address: str | None = None
    transact_args: Callable[[str], list[str]] | None = None
    commit_count: Callable[[str], int] | None = None
    # -- event hooks
    event_address: str | None = None
    event_name: str | None = None
    trigger_event: Callable[[str], bytes] | None = None
    event_verifier: Callable[[], object] | None = None
    # -- asset hooks
    asset_contract_address: str | None = None
    issue_asset: Callable[[str, str], str] | None = None
    read_lock: Callable[[str], dict] | None = None
    counter_client: InteropClient | None = None
    #: The underlying ledger object, for scenario-specific manipulation the
    #: verb hooks cannot express (e.g. a public chain's mine/force_reorg).
    substrate: object | None = None

    def __post_init__(self) -> None:
        if not self.destination_network_id:
            self.destination_network_id = self.client.network_id

    @property
    def driver(self):
        return self.relay.driver_for(self.network_id)

    @property
    def supports_transactions(self) -> bool:
        driver = self.driver
        return driver is not None and driver.supports_transactions

    @property
    def supports_events(self) -> bool:
        driver = self.driver
        return driver is not None and driver.supports_events

    @property
    def supports_assets(self) -> bool:
        driver = self.driver
        return driver is not None and driver.supports_assets

    def party(self, client: InteropClient) -> str:
        return f"{client.identity.name}@{client.network_id}"

    def asset_command(
        self,
        client: InteropClient,
        asset_id: str,
        recipient: str = "",
        hashlock: bytes = b"",
        timeout: float = 0.0,
        preimage: bytes = b"",
    ) -> AssetCommandMsg:
        address_text = self.asset_contract_address or (
            f"{self.network_id}/vault/conformance-vault"
        )
        network, ledger, contract = address_text.split("/")
        return AssetCommandMsg(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network=network, ledger=ledger, contract=contract, function=""
            ),
            asset_id=asset_id,
            recipient=recipient,
            hashlock=hashlock,
            timeout=timeout,
            preimage=preimage,
            auth=client.auth_info(),
            nonce=random_id("conf-asset-"),
        )


class DriverConformanceSuite:
    """Runs the verb × fault-plan matrix against one target."""

    def __init__(
        self,
        target: ConformanceTarget,
        seed: int,
        plans: Sequence[FaultPlan] | None = None,
    ) -> None:
        self.target = target
        self.seed = int(seed)
        self.plans = (
            list(plans) if plans is not None else default_fault_plans(self.seed)
        )
        self._serial = 0

    # -- entry points -------------------------------------------------------------

    def run(self, verbs: Sequence[str] = ALL_VERBS) -> ConformanceReport:
        report = ConformanceReport(platform=self.target.platform, seed=self.seed)
        for plan in self.plans:
            for verb in verbs:
                report.outcomes.append(self.run_scenario(verb, plan))
        return report

    def run_plan(self, plan: FaultPlan, verbs: Sequence[str] = ALL_VERBS) -> list[ScenarioOutcome]:
        return [self.run_scenario(verb, plan) for verb in verbs]

    def run_scenario(self, verb: str, plan: FaultPlan) -> ScenarioOutcome:
        runner = {
            VERB_QUERY: self._scenario_query,
            VERB_BATCH: self._scenario_batch,
            VERB_TRANSACT: self._scenario_transact,
            VERB_SUBSCRIBE: self._scenario_subscribe,
            VERB_ASSETS: self._scenario_assets,
        }.get(verb)
        if runner is None:
            raise ValueError(f"unknown conformance verb {verb!r}")
        return runner(plan)

    # -- shared helpers -----------------------------------------------------------

    def _tag(self, verb: str, plan: FaultPlan) -> str:
        self._serial += 1
        safe_plan = plan.name.replace("+", "-")
        return f"CONF-{verb}-{safe_plan}-{self.seed}-{self._serial}"

    def _fail(self, message: str, verb: str, plan: FaultPlan) -> ConformanceError:
        return ConformanceError(message, seed=self.seed, verb=verb, plan=plan.name)

    def _must_succeed(self, plan: FaultPlan) -> bool:
        """Transport-only plans must be fully survived via failover."""
        return all(spec.kind not in TAMPER_FAULT_KINDS for spec in plan.specs)

    def _classify_failure(
        self, exc: Exception, verb: str, plan: FaultPlan, detail: str
    ) -> ScenarioOutcome:
        # Tampering legitimately surfaces anywhere in the verification
        # stack — proof checks (InteropError) or the crypto/wire layers
        # beneath them — but never as an untyped Python error.
        if not isinstance(exc, ReproError):
            raise self._fail(
                f"{detail}: failure is not a typed protocol error: "
                f"{type(exc).__name__}: {exc}",
                verb,
                plan,
            )
        if self._must_succeed(plan):
            raise self._fail(
                f"{detail}: transport fault with a redundant endpoint must be "
                f"survived by failover, but raised {type(exc).__name__}: {exc}",
                verb,
                plan,
            )
        return ScenarioOutcome(
            verb=verb,
            plan=plan.name,
            seed=self.seed,
            outcome=OUTCOME_DEGRADED,
            detail=f"{type(exc).__name__}",
        )

    def _expect_fail_closed(
        self, verb: str, plan: FaultPlan, action: Callable[[], object]
    ) -> ScenarioOutcome:
        """Unsupported verbs must raise the typed capability error, even
        with faults in the path."""
        with chaos_topology(
            self.target.registry,
            [self.target.network_id],
            plan,
            clock=self.target.clock,
        ):
            try:
                action()
            except UnsupportedCapabilityError as exc:
                return ScenarioOutcome(
                    verb=verb,
                    plan=plan.name,
                    seed=self.seed,
                    outcome=OUTCOME_FAIL_CLOSED,
                    detail=str(exc)[:80],
                )
            except Exception as exc:  # noqa: BLE001 - must be the typed error
                raise self._fail(
                    f"unsupported verb must fail closed with "
                    f"UnsupportedCapabilityError, got {type(exc).__name__}: {exc}",
                    verb,
                    plan,
                )
        raise self._fail(
            "unsupported verb completed instead of failing closed", verb, plan
        )

    # -- verb scenarios -----------------------------------------------------------

    def _scenario_query(self, plan: FaultPlan) -> ScenarioOutcome:
        target = self.target
        failovers_before = target.client.relay.stats.failovers
        with chaos_topology(
            target.registry, [target.network_id], plan, clock=target.clock
        ) as wrappers:
            chaos = wrappers[target.network_id]
            # Trace correlation is part of the protocol surface under
            # test: the query runs under an explicit trace, and a served
            # outcome must show that trace arriving at the serving relay
            # even with the fault plan in the path.
            with capture_logs("repro.relay") as relay_logs:
                with activate(new_trace()) as trace:
                    try:
                        result = target.client.remote_query(
                            target.query_address,
                            target.query_args,
                            policy=target.policy,
                        )
                    except Exception as exc:  # noqa: BLE001 - classified below
                        return self._classify_failure(
                            exc, VERB_QUERY, plan, "query"
                        )
            served_under_trace = [
                record
                for record in relay_logs.with_trace(trace.trace_id)
                if record["message"] == "serving inbound envelope"
            ]
            if not served_under_trace:
                raise self._fail(
                    f"served query's trace id {trace.trace_id} never reached "
                    f"the serving relay's log records",
                    VERB_QUERY,
                    plan,
                )
            if not target.expected_query(result.data):
                raise self._fail(
                    f"query returned unverified/wrong data: {result.data[:80]!r}",
                    VERB_QUERY,
                    plan,
                )
            if chaos.requests_seen > 1:
                raise self._fail(
                    f"unbounded retry: the chaotic endpoint saw "
                    f"{chaos.requests_seen} requests for one query",
                    VERB_QUERY,
                    plan,
                )
            if any(kind in chaos.injected for kind in TRANSPORT_FAULT_KINDS):
                delta = target.client.relay.stats.failovers - failovers_before
                if delta < 1:
                    raise self._fail(
                        "transport fault injected but failover never engaged",
                        VERB_QUERY,
                        plan,
                    )
        return ScenarioOutcome(
            verb=VERB_QUERY,
            plan=plan.name,
            seed=self.seed,
            outcome=OUTCOME_SERVED,
            injections=dict(chaos.injected),
        )

    def _scenario_batch(self, plan: FaultPlan) -> ScenarioOutcome:
        target = self.target
        from repro.api.batch import QuerySet

        batch = QuerySet(target.client)
        members = [
            batch.query(target.query_address)
            .with_args(*target.query_args)
            .with_policy(target.policy)
            .submit()
            for _ in range(3)
        ]
        with chaos_topology(
            target.registry, [target.network_id], plan, clock=target.clock
        ) as wrappers:
            chaos = wrappers[target.network_id]
            try:
                results = batch.results()
            except Exception as exc:  # noqa: BLE001 - classified below
                return self._classify_failure(exc, VERB_BATCH, plan, "batch")
            if len(results) != len(members):
                raise self._fail(
                    f"batch returned {len(results)} results for "
                    f"{len(members)} members",
                    VERB_BATCH,
                    plan,
                )
            for position, result in enumerate(results):
                if not target.expected_query(result.data):
                    raise self._fail(
                        f"batch member {position} returned unverified/wrong "
                        f"data: {result.data[:80]!r}",
                        VERB_BATCH,
                        plan,
                    )
        return ScenarioOutcome(
            verb=VERB_BATCH,
            plan=plan.name,
            seed=self.seed,
            outcome=OUTCOME_SERVED,
            injections=dict(chaos.injected),
        )

    def _scenario_transact(self, plan: FaultPlan) -> ScenarioOutcome:
        target = self.target
        if not target.supports_transactions or target.transact_address is None:
            return self._expect_fail_closed(
                VERB_TRANSACT,
                plan,
                lambda: target.client.remote_query(
                    target.transact_address
                    or f"{target.network_id}/ledger/contract/Invoke",
                    ["CONF-UNSUPPORTED"],
                    policy=target.policy,
                    invocation=INVOCATION_TRANSACTION,
                ),
            )
        assert target.transact_args is not None and target.commit_count is not None
        tag = self._tag(VERB_TRANSACT, plan)
        committed_before = target.commit_count(tag)
        with chaos_topology(
            target.registry, [target.network_id], plan, clock=target.clock
        ) as wrappers:
            chaos = wrappers[target.network_id]
            try:
                result = target.client.remote_query(
                    target.transact_address,
                    target.transact_args(tag),
                    policy=target.policy,
                    invocation=INVOCATION_TRANSACTION,
                )
            except Exception as exc:  # noqa: BLE001 - classified below
                outcome = self._classify_failure(exc, VERB_TRANSACT, plan, "transact")
                delta = target.commit_count(tag) - committed_before
                if delta > 1:
                    raise self._fail(
                        f"double commit under failure: {delta} commits for "
                        f"one transaction",
                        VERB_TRANSACT,
                        plan,
                    )
                return outcome
            delta = target.commit_count(tag) - committed_before
            if delta != 1:
                raise self._fail(
                    f"expected exactly one commit, ledger shows {delta} "
                    f"(tx_id={result.tx_id!r})",
                    VERB_TRANSACT,
                    plan,
                )
            if not result.tx_id:
                raise self._fail(
                    "transaction result carries no committed tx id",
                    VERB_TRANSACT,
                    plan,
                )
        return ScenarioOutcome(
            verb=VERB_TRANSACT,
            plan=plan.name,
            seed=self.seed,
            outcome=OUTCOME_SERVED,
            detail=f"tx={result.tx_id[:16]}",
            injections=dict(chaos.injected),
        )

    def _scenario_subscribe(self, plan: FaultPlan) -> ScenarioOutcome:
        target = self.target
        from repro.api.gateway import InteropGateway

        gateway = InteropGateway.from_client(target.client)
        if not target.supports_events or target.event_address is None:
            return self._expect_fail_closed(
                VERB_SUBSCRIBE,
                plan,
                lambda: gateway.subscribe(
                    target.event_address
                    or f"{target.network_id}/ledger/contract",
                    target.event_name or "*",
                ),
            )
        assert target.trigger_event is not None and target.event_verifier is not None
        tag = self._tag(VERB_SUBSCRIBE, plan)
        dropped_before = target.relay.stats.events_dropped
        stream = None
        with chaos_topology(
            target.registry,
            [target.network_id, target.destination_network_id],
            plan,
            clock=target.clock,
        ) as wrappers:
            chaos = wrappers[target.network_id]
            try:
                try:
                    stream = gateway.subscribe(
                        target.event_address,
                        target.event_name,
                        verifier=target.event_verifier(),
                    )
                except Exception as exc:  # noqa: BLE001 - classified below
                    return self._classify_failure(
                        exc, VERB_SUBSCRIBE, plan, "subscribe"
                    )
                payload = target.trigger_event(tag)
                pending = stream.pending_count
                if pending > 1:
                    raise self._fail(
                        f"duplicate event delivery: {pending} notifications "
                        f"for one committed event",
                        VERB_SUBSCRIBE,
                        plan,
                    )
                if pending == 0:
                    dropped = target.relay.stats.events_dropped - dropped_before
                    if dropped < 1:
                        raise self._fail(
                            "event notification silently lost: not delivered "
                            "and not counted as dropped",
                            VERB_SUBSCRIBE,
                            plan,
                        )
                    if self._must_succeed(plan):
                        raise self._fail(
                            "event dropped despite a redundant delivery path",
                            VERB_SUBSCRIBE,
                            plan,
                        )
                    return ScenarioOutcome(
                        verb=VERB_SUBSCRIBE,
                        plan=plan.name,
                        seed=self.seed,
                        outcome=OUTCOME_DEGRADED,
                        detail="notification dropped (reported)",
                        injections=dict(chaos.injected),
                    )
                try:
                    event = stream.take()
                except Exception as exc:  # noqa: BLE001 - classified below
                    return self._classify_failure(
                        exc, VERB_SUBSCRIBE, plan, "event verification"
                    )
                if event is None:
                    # Rejected in verification: acceptable only when the
                    # notification content could have been corrupted.
                    if self._must_succeed(plan):
                        reasons = "; ".join(
                            rejected.reason for rejected in stream.rejected
                        )
                        raise self._fail(
                            f"clean notification failed verification: {reasons}",
                            VERB_SUBSCRIBE,
                            plan,
                        )
                    return ScenarioOutcome(
                        verb=VERB_SUBSCRIBE,
                        plan=plan.name,
                        seed=self.seed,
                        outcome=OUTCOME_DEGRADED,
                        detail="notification rejected by verification",
                        injections=dict(chaos.injected),
                    )
                if payload not in event.data and payload != event.notification.payload:
                    raise self._fail(
                        f"verified event does not cover the committed payload "
                        f"{payload!r}",
                        VERB_SUBSCRIBE,
                        plan,
                    )
            finally:
                if stream is not None:
                    stream.close()
        return ScenarioOutcome(
            verb=VERB_SUBSCRIBE,
            plan=plan.name,
            seed=self.seed,
            outcome=OUTCOME_SERVED,
            injections=dict(chaos.injected),
        )

    def _scenario_assets(self, plan: FaultPlan) -> ScenarioOutcome:
        target = self.target
        if not target.supports_assets:
            return self._expect_fail_closed(
                VERB_ASSETS,
                plan,
                lambda: target.client.relay.remote_asset(
                    MSG_KIND_ASSET_LOCK,
                    target.asset_command(
                        target.client,
                        "CONF-UNSUPPORTED",
                        recipient="nobody@nowhere",
                        hashlock=b"\x00" * 32,
                        timeout=1e12,
                    ),
                ),
            )
        assert (
            target.issue_asset is not None
            and target.read_lock is not None
            and target.counter_client is not None
            and target.clock is not None
        )
        from repro.assets.htlc import (
            STATE_CLAIMED,
            STATE_LOCKED,
            make_hashlock,
        )

        tag = self._tag(VERB_ASSETS, plan)
        owner_party = target.party(target.client)
        counter_party = target.party(target.counter_client)
        asset_id = target.issue_asset(tag, owner_party)
        preimage = f"preimage-{tag}".encode("utf-8")
        hashlock = make_hashlock(preimage)
        deadline = target.clock.now() + 600.0
        outcome = OUTCOME_SERVED
        detail = ""
        with chaos_topology(
            target.registry, [target.network_id], plan, clock=target.clock
        ) as wrappers:
            chaos = wrappers[target.network_id]
            steps_failed: list[str] = []
            # Step 1: escrow under the hashlock.
            try:
                lock_ack = target.client.relay.remote_asset(
                    MSG_KIND_ASSET_LOCK,
                    target.asset_command(
                        target.client,
                        asset_id,
                        recipient=counter_party,
                        hashlock=hashlock,
                        timeout=deadline,
                    ),
                )
                if lock_ack.status != STATUS_OK:
                    steps_failed.append(f"lock refused: {lock_ack.error}")
            except ReproError as exc:
                steps_failed.append(f"lock: {type(exc).__name__}")
            # Server-side truth: the lock either landed exactly once with
            # our terms, or not at all — never a mangled escrow.
            truth = target.read_lock(asset_id)
            if truth["state"] == STATE_LOCKED:
                if truth["hashlock"] != hashlock.hex() or truth["recipient"] != counter_party:
                    raise self._fail(
                        f"fake/mangled escrow on ledger: {truth}",
                        VERB_ASSETS,
                        plan,
                    )
                # Step 2: counterparty upgrades the lock to trusted data
                # with a proof-carrying GetLock query before acting.
                assert target.asset_contract_address is not None
                try:
                    import json

                    fetched = target.counter_client.remote_query(
                        f"{target.asset_contract_address}/GetLock",
                        [asset_id],
                        policy=target.policy,
                    )
                    record = json.loads(fetched.data)
                    if record["hashlock"] != hashlock.hex():
                        raise self._fail(
                            "proof-verified lock record does not match the "
                            "ledger escrow (fake escrow accepted)",
                            VERB_ASSETS,
                            plan,
                        )
                except ReproError as exc:
                    steps_failed.append(f"verify: {type(exc).__name__}")
                # Step 3: counterparty claims with the preimage.
                try:
                    claim_ack = target.counter_client.relay.remote_asset(
                        MSG_KIND_ASSET_CLAIM,
                        target.asset_command(
                            target.counter_client, asset_id, preimage=preimage
                        ),
                    )
                    if claim_ack.status != STATUS_OK:
                        steps_failed.append(f"claim refused: {claim_ack.error}")
                except ReproError as exc:
                    steps_failed.append(f"claim: {type(exc).__name__}")
            else:
                steps_failed.append(f"lock never landed (state {truth['state']!r})")
            # Final ledger truth: the asset is locked by us or claimed by
            # the counterparty with OUR preimage — nothing else.
            final = target.read_lock(asset_id)
            if final["state"] == STATE_CLAIMED:
                if final["preimage"] != preimage.hex():
                    raise self._fail(
                        f"claimed with a foreign preimage: {final}",
                        VERB_ASSETS,
                        plan,
                    )
            elif final["state"] != STATE_LOCKED and final["state"] != "available":
                raise self._fail(
                    f"escrow reached an illegal state: {final}", VERB_ASSETS, plan
                )
            if steps_failed:
                if self._must_succeed(plan):
                    raise self._fail(
                        "asset verbs must survive transport faults via "
                        "failover: " + "; ".join(steps_failed),
                        VERB_ASSETS,
                        plan,
                    )
                outcome = OUTCOME_DEGRADED
                detail = "; ".join(steps_failed)[:120]
            elif final["state"] != STATE_CLAIMED:
                raise self._fail(
                    f"all verbs acked but the ledger shows {final['state']!r}",
                    VERB_ASSETS,
                    plan,
                )
        # Read-only status probe outside the chaos window: the record must
        # reflect exactly what the ledger holds.
        status = target.client.relay.remote_asset(
            MSG_KIND_ASSET_STATUS,
            target.asset_command(target.client, asset_id),
        )
        final = target.read_lock(asset_id)
        if status.status == STATUS_OK and status.state != final["state"]:
            raise self._fail(
                f"status ack disagrees with ledger truth: {status.state!r} "
                f"vs {final['state']!r}",
                VERB_ASSETS,
                plan,
            )
        return ScenarioOutcome(
            verb=VERB_ASSETS,
            plan=plan.name,
            seed=self.seed,
            outcome=outcome,
            detail=detail,
            injections=dict(chaos.injected),
        )
