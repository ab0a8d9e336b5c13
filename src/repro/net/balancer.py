"""Client-side load balancing over redundant relay endpoints.

The paper's DoS mitigation (§5) is *redundant relays per network*; a
discovery lookup returns all of them and the failover loop in
:meth:`RelayService._exchange` walks the list in order. That is
availability, not scale: the first healthy endpoint serves every request
until it dies. This module turns the raw lookup result into a managed
:class:`EndpointPool` per destination network with two balancing
strategies chosen per request:

- **Read-only envelopes** (queries, batches, subscribe handshakes)
  spread by *power-of-two-choices* on in-flight count: pick two replicas
  at random, prefer the less loaded. P2C gets within a constant factor
  of least-loaded routing while sampling only two counters — no global
  scan, no herd behaviour when counters are stale.
- **Side-effecting envelopes** (transactions, asset commands) route by
  *consistent hashing* on the envelope ``request_id``, so a duplicate or
  replayed request lands on the same replica that holds its
  exactly-once idempotency record. The relay's idempotency record is
  per-process (until a shared :mod:`repro.store` deployment makes
  placement irrelevant); stickiness is what keeps exactly-once true
  across a fleet. The ring uses a keyed BLAKE2 hash — Python's builtin
  ``hash`` is salted per process, which would break stickiness across
  restarts and between cooperating clients.

Health: a :class:`ReadinessMonitor` polls each replica's ``/readyz``
probe (:mod:`repro.ops.probe`) in the background and temporarily
*evicts* not-ready endpoints from rotation, restoring them when the
probe recovers. Eviction only narrows the candidate ordering — evicted
endpoints move to the tail rather than vanishing, and the existing
failover loop still walks the full list, so the race where a replica
dies mid-request (or every replica is evicted at once) degrades to
exactly the pre-fleet behaviour instead of an outage.

:class:`BalancedDiscovery` wraps any
:class:`~repro.interop.discovery.DiscoveryService` and is a drop-in for
the relay's ``discovery=`` argument: ``lookup`` keeps its contract, and
the relay's ``_exchange`` passes request context through the optional
``lookup_for`` extension so ordering can be request-aware.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import threading
from typing import Callable, Mapping

from repro.interop.discovery import DiscoveryService, RelayEndpoint

__all__ = [
    "BalancedDiscovery",
    "EndpointPool",
    "ReadinessMonitor",
    "endpoint_key",
]

#: Virtual nodes per member on the consistent-hash ring. 64 vnodes keeps
#: the load split within a few percent of even for small fleets while the
#: ring stays tiny (8 replicas -> 512 entries).
DEFAULT_VNODES = 64


def endpoint_key(endpoint: RelayEndpoint) -> str:
    """A stable identity for an endpoint across lookups.

    Prefers the transport address (stable across re-dials), then a relay
    id (in-process endpoints), then object identity as a last resort.
    """
    address = getattr(endpoint, "address", None)
    if isinstance(address, str) and address:
        return address
    relay_id = getattr(endpoint, "relay_id", None)
    if isinstance(relay_id, str) and relay_id:
        return relay_id
    return f"endpoint-{id(endpoint):x}"


def _ring_hash(value: str) -> int:
    """64-bit stable hash (builtin ``hash`` is salted per process)."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _Member:
    """One replica's pool-side bookkeeping."""

    __slots__ = ("key", "endpoint", "in_flight", "evicted", "requests", "failures")

    def __init__(self, key: str, endpoint: RelayEndpoint) -> None:
        self.key = key
        self.endpoint = endpoint
        self.in_flight = 0
        self.evicted = False
        self.requests = 0
        self.failures = 0


class _BalancedEndpoint:
    """Wraps a pool member so in-flight accounting rides every request.

    The pool lock is taken only to bump counters — never across the
    delegated ``handle_request`` (which does socket I/O).
    """

    __slots__ = ("_pool", "_member")

    def __init__(self, pool: "EndpointPool", member: _Member) -> None:
        self._pool = pool
        self._member = member

    @property
    def key(self) -> str:
        return self._member.key

    @property
    def address(self) -> str:
        return self._member.key

    @property
    def evicted(self) -> bool:
        return self._member.evicted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BalancedEndpoint({self._member.key})"

    def handle_request(self, data: bytes) -> bytes:
        self._pool._enter(self._member)
        try:
            reply = self._member.endpoint.handle_request(data)
        except BaseException:
            self._pool._exit(self._member, failed=True)
            raise
        self._pool._exit(self._member, failed=False)
        return reply


class EndpointPool:
    """The managed replica set for one destination network.

    Membership follows discovery (:meth:`update` reconciles against the
    latest lookup, preserving in-flight/eviction state for endpoints
    that persist), :meth:`candidates` produces the per-request failover
    ordering, and :meth:`evict`/:meth:`restore` move members out of and
    back into rotation without ever dropping them from the candidate
    tail. Thread-safe; ``rng`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        network_id: str,
        rng: random.Random | None = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.network_id = network_id
        self._lock = threading.Lock()
        self._rng = rng if rng is not None else random.Random()
        self._vnodes = vnodes
        self._members: dict[str, _Member] = {}
        #: Sorted ``(hash, member_key)`` pairs — the consistent-hash ring.
        self._ring: list[tuple[int, str]] = []
        #: Monotonic counters (exported via :meth:`snapshot`).
        self.p2c_decisions = 0
        self.sticky_decisions = 0
        self.evictions = 0
        self.restores = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    # -- membership ---------------------------------------------------------------

    def update(self, endpoints: "list[RelayEndpoint]") -> None:
        """Reconcile membership against the latest discovery result."""
        with self._lock:
            seen: dict[str, _Member] = {}
            for endpoint in endpoints:
                key = endpoint_key(endpoint)
                member = self._members.get(key)
                if member is None:
                    member = _Member(key, endpoint)
                else:
                    # Same identity, possibly a re-dialed endpoint object
                    # (e.g. TcpTransport evicted a closed one).
                    member.endpoint = endpoint
                seen[key] = member
            changed = seen.keys() != self._members.keys()
            self._members = seen
            if changed:
                self._ring = self._build_ring(seen.keys())

    def _build_ring(self, keys) -> list[tuple[int, str]]:
        ring: list[tuple[int, str]] = []
        for key in keys:
            for replica in range(self._vnodes):
                ring.append((_ring_hash(f"{key}#{replica}"), key))
        ring.sort()
        return ring

    def member_keys(self) -> list[str]:
        with self._lock:
            return list(self._members)

    def members(self) -> "list[tuple[str, RelayEndpoint, bool]]":
        """Snapshot of ``(key, endpoint, evicted)`` per member."""
        with self._lock:
            return [(m.key, m.endpoint, m.evicted) for m in self._members.values()]

    # -- health -------------------------------------------------------------------

    def evict(self, key: str) -> bool:
        """Move a member out of rotation (it stays a last-resort tail
        candidate). Returns whether the state changed."""
        with self._lock:
            member = self._members.get(key)
            if member is None or member.evicted:
                return False
            member.evicted = True
            self.evictions += 1
            return True

    def restore(self, key: str) -> bool:
        """Return an evicted member to rotation."""
        with self._lock:
            member = self._members.get(key)
            if member is None or not member.evicted:
                return False
            member.evicted = False
            self.restores += 1
            return True

    # -- balancing ----------------------------------------------------------------

    def candidates(
        self, request_id: str = "", side_effecting: bool = False
    ) -> "list[RelayEndpoint]":
        """The failover-ordered endpoint list for one request.

        Healthy members come first — power-of-two-choices order for
        read-only traffic, ring-walk order from ``request_id`` for
        side-effecting traffic — and evicted members are appended at the
        tail (least loaded first) so a fully-evicted pool still serves
        rather than failing closed: the probe can be wrong, the failover
        loop is the final arbiter.
        """
        with self._lock:
            if not self._members:
                return []
            if side_effecting and request_id:
                ordered = self._sticky_order_locked(request_id)
                self.sticky_decisions += 1
            else:
                ordered = self._p2c_order_locked()
                self.p2c_decisions += 1
            healthy = [m for m in ordered if not m.evicted]
            benched = sorted(
                (m for m in ordered if m.evicted), key=lambda m: m.in_flight
            )
            return [_BalancedEndpoint(self, m) for m in (*healthy, *benched)]

    def _p2c_order_locked(self) -> "list[_Member]":
        members = list(self._members.values())
        if len(members) <= 1:
            return members
        first, second = self._rng.sample(members, 2)
        if second.in_flight < first.in_flight:
            first, second = second, first
        rest = sorted(
            (m for m in members if m is not first and m is not second),
            key=lambda m: m.in_flight,
        )
        return [first, second, *rest]

    def _sticky_order_locked(self, request_id: str) -> "list[_Member]":
        ring = self._ring
        if not ring:
            return list(self._members.values())
        start = bisect.bisect_right(ring, (_ring_hash(request_id), ""))
        ordered: list[_Member] = []
        seen: set[str] = set()
        for offset in range(len(ring)):
            _, key = ring[(start + offset) % len(ring)]
            if key in seen:
                continue
            seen.add(key)
            member = self._members.get(key)
            if member is not None:
                ordered.append(member)
            if len(ordered) == len(self._members):
                break
        return ordered

    # -- accounting (called by _BalancedEndpoint) ---------------------------------

    def _enter(self, member: _Member) -> None:
        with self._lock:
            member.in_flight += 1
            member.requests += 1

    def _exit(self, member: _Member, failed: bool) -> None:
        with self._lock:
            member.in_flight = max(0, member.in_flight - 1)
            if failed:
                member.failures += 1

    # -- observability ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Atomic copy of pool state for metrics exporters."""
        with self._lock:
            return {
                "network": self.network_id,
                "p2c_decisions": self.p2c_decisions,
                "sticky_decisions": self.sticky_decisions,
                "evictions": self.evictions,
                "restores": self.restores,
                "members": {
                    m.key: {
                        "in_flight": m.in_flight,
                        "evicted": m.evicted,
                        "requests": m.requests,
                        "failures": m.failures,
                    }
                    for m in self._members.values()
                },
            }


class BalancedDiscovery(DiscoveryService):
    """Wraps a discovery service with per-network managed endpoint pools.

    A drop-in for :class:`RelayService`'s ``discovery=``: plain
    ``lookup`` still returns a failover-ordered endpoint list (now
    p2c-ordered and health-aware), and the relay's ``_exchange`` feeds
    request context through :meth:`lookup_for` so side-effecting
    envelopes get consistent-hash stickiness.
    """

    def __init__(
        self, inner: DiscoveryService, rng: random.Random | None = None
    ) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self._rng = rng if rng is not None else random.Random()
        self._pools: dict[str, EndpointPool] = {}
        self._monitors: list[ReadinessMonitor] = []

    @property
    def inner(self) -> DiscoveryService:
        return self._inner

    def pool(self, network_id: str) -> EndpointPool:
        """The (lazily created) pool for ``network_id``."""
        with self._lock:
            pool = self._pools.get(network_id)
            if pool is None:
                # Derive a per-pool rng so injected seeds stay deterministic.
                pool = EndpointPool(
                    network_id, rng=random.Random(self._rng.getrandbits(64))
                )
                self._pools[network_id] = pool
            return pool

    def pools(self) -> "list[dict]":
        """Snapshots of every pool (for metrics exporters)."""
        with self._lock:
            pools = list(self._pools.values())
        return [pool.snapshot() for pool in pools]

    def counters(self) -> dict[str, int]:
        """Pass through the inner service's counters (if it keeps any)."""
        inner_counters = getattr(self._inner, "counters", None)
        if callable(inner_counters):
            return dict(inner_counters())
        return {}

    def lookup(self, network_id: str) -> "list[RelayEndpoint]":
        return self.lookup_for(network_id)

    def lookup_for(
        self,
        network_id: str,
        request_id: str = "",
        side_effecting: bool = False,
    ) -> "list[RelayEndpoint]":
        """Request-aware lookup: refresh the pool from the inner service,
        then order candidates for this specific request."""
        endpoints = self._inner.lookup(network_id)  # may raise DiscoveryError
        pool = self.pool(network_id)
        pool.update(endpoints)
        candidates = pool.candidates(
            request_id=request_id, side_effecting=side_effecting
        )
        # An inner lookup that raced membership away entirely falls back
        # to the raw result — never return fewer endpoints than inner did.
        return candidates if candidates else endpoints

    def monitor(
        self,
        network_id: str,
        probe_urls: "Mapping[str, str] | None" = None,
        check: "Callable[[str, RelayEndpoint], bool | None] | None" = None,
        interval: float = 1.0,
        timeout: float = 2.0,
    ) -> "ReadinessMonitor":
        """Start (and track) a background readiness monitor for one pool."""
        monitor = ReadinessMonitor(
            self.pool(network_id),
            probe_urls=probe_urls,
            check=check,
            interval=interval,
            timeout=timeout,
        )
        with self._lock:
            self._monitors.append(monitor)
        monitor.start()
        return monitor

    def close(self) -> None:
        """Stop all background monitors."""
        with self._lock:
            monitors, self._monitors = list(self._monitors), []
        for monitor in monitors:
            monitor.stop()


class ReadinessMonitor:
    """Polls replica ``/readyz`` probes and drives pool evict/restore.

    ``probe_urls`` maps member keys (usually ``tcp://host:port``
    addresses) to the *ops probe* base URL of that replica (the
    :class:`~repro.ops.probe.OpsProbeServer` ``url``). Members with no
    known probe are never evicted — no signal is not a death sentence.
    A custom ``check(key, endpoint) -> bool | None`` replaces the HTTP
    probe entirely (``None`` meaning "no signal").

    ``poll_once`` is public so tests (and cron-style callers) can drive
    the lifecycle deterministically without the background thread.
    """

    def __init__(
        self,
        pool: EndpointPool,
        probe_urls: "Mapping[str, str] | None" = None,
        check: "Callable[[str, RelayEndpoint], bool | None] | None" = None,
        interval: float = 1.0,
        timeout: float = 2.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.pool = pool
        self._probe_urls = dict(probe_urls) if probe_urls else {}
        self._check = check
        self._interval = interval
        self._timeout = timeout
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def set_probe_url(self, key: str, url: str) -> None:
        self._probe_urls[key] = url

    def _probe_ready(self, url: str) -> bool:
        # Imported here: urllib.request pulls in http.client and email
        # (~0.5 MB resident that nothing else in the package needs), and
        # only a fleet that polls /readyz over HTTP ever reaches this line.
        import urllib.request

        try:
            with urllib.request.urlopen(
                url.rstrip("/") + "/readyz", timeout=self._timeout
            ) as response:
                return 200 <= response.status < 300
        except OSError:
            # HTTPError (503 not-ready) and URLError (unreachable) are
            # both OSErrors: either way the replica gets no traffic.
            return False

    def poll_once(self) -> dict[str, bool]:
        """One readiness sweep; returns the per-member verdicts."""
        verdicts: dict[str, bool] = {}
        for key, endpoint, _evicted in self.pool.members():
            ready: bool | None = None
            if self._check is not None:
                try:
                    ready = self._check(key, endpoint)
                except Exception:  # noqa: BLE001 - a crashing readiness check means not-ready, never a dead monitor thread
                    ready = False
            else:
                url = self._probe_urls.get(key)
                if url is not None:
                    ready = self._probe_ready(url)
            if ready is None:
                continue  # no signal for this member — leave it alone
            verdicts[key] = ready
            if ready:
                self.pool.restore(key)
            else:
                self.pool.evict(key)
        return verdicts

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.poll_once()

    def start(self) -> "ReadinessMonitor":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run,
                name=f"readiness-{self.pool.network_id}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ReadinessMonitor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
