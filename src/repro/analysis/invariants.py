"""The repo-specific invariant registries the checkers consume.

This module is the single place where "what the rules protect" is
declared; the checkers themselves are generic AST machinery. When a
ROADMAP item adds new shared state (a StateStore, a relay-fleet health
table, a proof-verification cache), register it here and the existing
rules start guarding it — no new checker code.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# REP101 — lock discipline: registered shared-state attributes and the
# lock that must be held to mutate them. Keyed by class name; values map
# attribute -> required lock attribute (both as seen on ``self``).
# ``__init__`` is exempt (construction precedes sharing).
# ---------------------------------------------------------------------------

GUARDED_STATE: dict[str, dict[str, str]] = {
    # repro/interop/relay.py
    "RelayService": {
        "_served_subscriptions": "_subscriptions_lock",
        "_event_sinks": "_subscriptions_lock",
        "_idempotency": "_idempotency_lock",
        "_idempotency_seq": "_idempotency_lock",
        "_in_flight": "_idempotency_lock",
        "_interceptors": "_chain_lock",
        "_chain": "_chain_lock",
    },
    "RateLimiter": {"_timestamps": "_lock", "rejected": "_lock"},
    # repro/api/middleware.py
    "ResponseCacheInterceptor": {
        "_entries": "_mutex",
        "hits": "_mutex",
        "misses": "_mutex",
        "bypassed": "_mutex",
    },
    # repro/net/client.py
    "TcpRelayEndpoint": {
        "_idle": "_lock",
        "_closed": "_lock",
        "requests_sent": "_lock",
        "connections_dialed": "_lock",
        "transport_failures": "_lock",
    },
    # repro/ops/metrics.py — serve threads report into instruments while
    # the probe thread scrapes them; the registry map itself is shared.
    "_Instrument": {"_series": "_lock"},
    "Counter": {"_series": "_lock"},
    "Gauge": {"_series": "_lock"},
    "Histogram": {"_series": "_lock"},
    "MetricsRegistry": {"_metrics": "_lock", "_collectors": "_lock"},
    # A CounterSet's peak tracking reads one series and raises another
    # as one step; its series table is fixed at construction.
    "CounterSet": {"_series": "_lock", "_peaks": "_lock"},
    # repro/ops/health.py
    "HealthProbe": {"_checks": "_lock"},
    # repro/ops/logging.py
    "JsonLogCapture": {"records": "_records_lock"},
    # repro/store/memory.py
    "MemoryStore": {
        "_data": "_lock",
        "_closed": "_lock",
        "batches_applied": "_lock",
        "ops_applied": "_lock",
    },
    # repro/store/sqlite.py — one sqlite connection is shared by
    # concurrent serve threads; close() drops it.
    "SqliteStore": {
        "_conn": "_lock",
        "batches_applied": "_lock",
        "ops_applied": "_lock",
    },
    # repro/interop/discovery.py
    "InMemoryRegistry": {"_relays": "_lock"},
    "FileRegistry": {"addresses_skipped": "_lock"},
    # repro/net/transport.py
    "LocalTransport": {"_endpoints": "_lock"},
    "AddressResolver": {"_transports": "_lock"},
    # repro/net/balancer.py — pool membership, the hash ring, balancing
    # counters and per-member in-flight accounting are all touched by
    # concurrent request threads plus the readiness monitor thread.
    "EndpointPool": {
        "_members": "_lock",
        "_ring": "_lock",
        "p2c_decisions": "_lock",
        "sticky_decisions": "_lock",
        "evictions": "_lock",
        "restores": "_lock",
    },
    "BalancedDiscovery": {"_pools": "_lock", "_monitors": "_lock"},
    # repro/pubchain/chain.py — the block tree, fork-choice tip, and the
    # replay caches are shared by submitters, miners, and driver reads.
    "SimulatedPublicChain": {
        "_blocks": "_lock",
        "_tip": "_lock",
        "_block_nonce": "_lock",
        "_writesets": "_lock",
        "_tx_height": "_lock",
        "_state_cache": "_lock",
        "_orgs": "_lock",
        "_observers": "_lock",
        "_contracts": "_lock",
    },
}

#: Attribute-call names that mutate their receiver (``self.x.append(...)``
#: counts as a write to ``x``).
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

# ---------------------------------------------------------------------------
# REP102 / REP201 — blocking operations. A *sync* lock must never be held
# across any of these, and none of them may run inside an ``async def``
# frame (they stall the event loop / every other coroutine).
# ---------------------------------------------------------------------------

#: Callable *attribute* names treated as blocking wherever they appear.
BLOCKING_ATTRS = frozenset(
    {
        "sleep",  # time.sleep / clock.sleep
        "sendall",
        "recv",
        "recv_into",
        "accept",
        "connect",
        "create_connection",
        "handle_request",  # a full relay round-trip (possibly over TCP)
        "round_trip",
        "wait",  # threading.Event.wait
        "acquire",  # bare Lock.acquire (use `with lock:` instead)
    }
)

#: Plain names treated as blocking calls (continuation of the chain).
BLOCKING_NAMES = frozenset({"call_next"})

#: Receivers whose otherwise-blocking attributes are async-native and
#: therefore fine when awaited (``await asyncio.sleep`` et al.).
ASYNC_NATIVE_ROOTS = frozenset({"asyncio"})

#: A `with` context expression is treated as a sync lock when its dotted
#: name's last segment contains one of these substrings.
LOCK_NAME_HINTS = ("lock", "mutex")

# ---------------------------------------------------------------------------
# REP401 — typed-error taxonomy: layers where a broad `except Exception`
# must either re-raise typed, answer an error envelope, or carry a
# `# noqa: BLE001 <rationale>` tag. REP402: no `except` there names
# `AttributeError`.
# ---------------------------------------------------------------------------

ERROR_TAXONOMY_LAYERS = (
    "repro/interop/",
    "repro/net/",
    "repro/api/",
    "repro/assets/",
    "repro/store/",
    "repro/ops/",
    "repro/pubchain/",
)

#: Helper calls whose return value IS the error answer (an error envelope
#: or a non-OK protocol ack) — `return self._error_envelope(...)` inside
#: a broad handler is the relay's documented way to surface failure to a
#: remote peer that cannot catch our exceptions.
ERROR_ANSWER_HELPERS = frozenset(
    {
        "_error_envelope",
        "error_reply",
        "_event_ack",
        "_error",
    }
)

# ---------------------------------------------------------------------------
# REP501 — capability fail-closed: a class granting `supports_X` must
# implement the full verb set of X somewhere in its (project-local) MRO.
# ---------------------------------------------------------------------------

CAPABILITY_VERBS: dict[str, tuple[str, ...]] = {
    "supports_transactions": ("execute_transaction",),
    "supports_events": ("open_event_tap", "close_event_tap"),
    "supports_assets": (
        "lock_asset",
        "claim_asset",
        "unlock_asset",
        "asset_status",
    ),
}

#: Verb definitions that DON'T count as implementations: the abstract
#: driver's defaults for these decline or no-op (that is the fail-closed
#: default), so a subclass granting the capability must override them.
#: The base's asset verbs are real implementations (they delegate to the
#: attached AssetLedgerPort), hence their absence here.
DECLINING_DEFAULTS: dict[str, frozenset[str]] = {
    "NetworkDriver": frozenset(
        {
            "execute_transaction",
            "_submit",
            "_committed_at",
            "open_event_tap",
            "close_event_tap",
        }
    ),
}

#: Verbs the abstract driver runs as a template: a class implements one by
#: defining every hook the template calls (REP603 forbids a platform
#: driver to override the template itself).
TEMPLATE_HOOKS: dict[str, tuple[str, ...]] = {
    "execute_transaction": ("_submit", "_committed_at"),
}

# ---------------------------------------------------------------------------
# REP301 — wire-kind registry: canonical module locations.
# ---------------------------------------------------------------------------

MESSAGES_MODULE = "repro/proto/messages.py"
PROTO_EXPORTS_MODULE = "repro/proto/__init__.py"
RELAY_MODULE = "repro/interop/relay.py"

#: The classification sets every MSG_KIND_* constant must fall into
#: (exactly one of them).
KIND_CLASS_SETS = ("SIDE_EFFECTING_KINDS", "READ_ONLY_KINDS", "REPLY_KINDS")

#: (class, attribute) of the relay's dispatch table: a dict literal keyed
#: by ``MSG_KIND_*`` constants, one key per request kind it serves.
DISPATCH_TABLE = ("RelayService", "_SERVE_TABLE")

# ---------------------------------------------------------------------------
# REP601 — one access gate: where certificates may be bound to claims.
# ---------------------------------------------------------------------------

ACCESS_GATE_LAYERS = (
    "repro/interop/",
    "repro/assets/",
    "repro/pubchain/",
    "repro/api/",
)
ACCESS_GATE_MODULE = "repro/interop/access.py"

#: Modules that may call ``validate_chain`` outside the gate: proof
#: validation authenticates the attesting *peers* against recorded roots.
CHAIN_VALIDATION_EXEMPT = ("repro/interop/proofs.py",)

# ---------------------------------------------------------------------------
# REP602 — one module seals replies: where ECIES may be called.
# ---------------------------------------------------------------------------

#: The public-key encryption API: one box each way, and the key agreement
#: several boxes of one peer reply share.
SEALING_CALLS = frozenset({"ecies_encrypt", "ecies_decrypt", "Encapsulation"})

#: Modules that may call it: the primitives themselves, and the one owner
#: of how a reply is sealed and opened.
SEALING_MODULES = ("repro/crypto/", "repro/interop/proofs.py")

# ---------------------------------------------------------------------------
# REP603 — one driver template: where attesters are selected and replies
# attested, and which methods a platform driver may not override.
# ---------------------------------------------------------------------------

DRIVER_TEMPLATE_MODULE = "repro/interop/drivers/base.py"
DRIVER_TEMPLATE_CLASS = "NetworkDriver"

#: The calls only the template makes, and the modules defining them.
DRIVER_TEMPLATE_CALLS: dict[str, str] = {
    "attesters_for": "repro/interop/policy.py",
    "attest_reply": "repro/interop/proofs.py",
}

#: The template methods no subclass of the driver class overrides.
DRIVER_TEMPLATE_METHODS = frozenset({"execute_query", "execute_transaction"})

# ---------------------------------------------------------------------------
# REP604 — one finalizer: where a reply is opened and bound to its request.
# ---------------------------------------------------------------------------

#: The module defining the reply opener and the request binding check.
FINALIZER_MODULE = "repro/interop/proofs.py"

#: The calls only the one finalizer makes.
FINALIZER_CALLS = frozenset({"ReplyOpener", "check_attested_query"})

#: The one finalizer: its module and qualified name.
FINALIZER = ("repro/interop/client.py", "InteropClient.finalize_response")
