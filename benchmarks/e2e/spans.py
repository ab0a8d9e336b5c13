"""Traced runs: wrap each layer's public functions, record spans, split time.

The program has no timed spans of its own yet (ROADMAP item 1), so the
benchmark records them from outside: every *seam* below is one public
function or method, replaced by a wrapper that appends a
``[seam, parent, op, start_ns, end_ns, size]`` record to an in-memory
list while an operation is being traced, and is a plain pass-through
otherwise. Layer = module; a layer's ``*_ms`` metric is the **self** time
of its spans (duration minus the part their child spans cover), so the
layers add up to the traced wall time instead of counting nested work
twice.

Two facts about this code base shape the wrapper:

- primitives are imported *by name* (``from repro.crypto.certs import
  validate_chain`` in seven modules), so patching the defining module is
  not enough: every alias of the original found in a loaded module of the
  same top-level package is rebound too;
- bound methods are captured when a deployment is built (the orderer
  keeps ``peer.commit_block``), so seams are installed *before* the
  traced deployment is built, inactive until the first traced op.

A seam whose module, class or attribute no longer exists — a later PR may
rename or delete one — is listed under ``absent`` and contributes
nothing; the run still succeeds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence

# Record layout (a list, mutated once at span end).
SEAM, PARENT, OP, START, END, SIZE = range(6)


@dataclass(frozen=True)
class Seam:
    """One wrapped function: ``target`` is ``module:attr`` or
    ``module:Class.method`` (every subclass overriding it is wrapped too).
    ``size`` maps ``(args, result)`` to a byte count for ``*_bytes``."""

    name: str
    target: str
    size: Callable[[tuple, object], int] | None = None


def _arg_len(position: int) -> Callable[[tuple, object], int]:
    return lambda args, result: len(args[position])


def _result_len(args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


def _frame_len(args: tuple, result: object) -> int:
    # request + reply, each behind net.framing's 4-byte length prefix
    return len(args[1]) + len(result) + 8  # type: ignore[arg-type]


SEAMS: tuple[Seam, ...] = (
    Seam("crypto.ec.scalar_mult", "repro.crypto.ec:scalar_mult"),
    Seam("crypto.ecdsa.sign", "repro.crypto.ecdsa:sign"),
    Seam("crypto.ecdsa.verify", "repro.crypto.ecdsa:verify"),
    Seam("crypto.ecies.encrypt", "repro.crypto.ecies:ecies_encrypt"),
    Seam("crypto.ecies.decrypt", "repro.crypto.ecies:ecies_decrypt"),
    Seam("crypto.aead.seal", "repro.crypto.aead:seal", _arg_len(1)),
    Seam("crypto.aead.open", "repro.crypto.aead:open_", _arg_len(1)),
    Seam("crypto.certs.validate_chain", "repro.crypto.certs:validate_chain"),
    Seam(
        "interop.proofs.generate",
        "repro.interop.proofs:AttestationProofScheme.generate_attestation",
    ),
    Seam(
        "interop.proofs.validate",
        "repro.interop.proofs:AttestationProofScheme.validate_bundle",
    ),
    Seam("interop.client.prepare", "repro.interop.client:InteropClient.prepare_query"),
    Seam("interop.client.finalize", "repro.interop.client:InteropClient.finalize_response"),
    Seam("interop.relay.handle", "repro.interop.relay:RelayService.handle_request"),
    Seam("interop.drivers.execute", "repro.interop.drivers.base:NetworkDriver.execute_query"),
    Seam(
        "interop.drivers.execute",
        "repro.interop.drivers.base:NetworkDriver.execute_transaction",
    ),
    Seam("interop.drivers.execute", "repro.interop.drivers.base:NetworkDriver.execute_batch"),
    Seam(
        "interop.drivers.execute",
        "repro.interop.drivers.base:NetworkDriver.execute_transaction_batch",
    ),
    Seam("fabric.peer.endorse", "repro.fabric.peer:Peer.endorse"),
    Seam("fabric.peer.commit", "repro.fabric.peer:Peer.commit_block"),
    Seam("fabric.orderer.order", "repro.fabric.orderer:OrderingService.submit"),
    Seam("fabric.orderer.order", "repro.fabric.orderer:OrderingService.flush"),
    Seam("quorum.submit", "repro.quorum.network:QuorumNetwork.submit_transaction"),
    Seam("assets.coordinator", "repro.assets.coordinator:AssetExchangeCoordinator.run"),
    Seam("assets.port", "repro.assets.ports:AssetLedgerPort.lock_asset"),
    Seam("assets.port", "repro.assets.ports:AssetLedgerPort.claim_asset"),
    Seam("assets.port", "repro.assets.ports:AssetLedgerPort.unlock_asset"),
    Seam("assets.port", "repro.assets.ports:AssetLedgerPort.asset_status"),
    Seam("store.apply", "repro.store.base:StateStore.apply"),
    Seam("proto.codec", "repro.wire.message:Message.encode", _result_len),
    Seam("proto.codec", "repro.wire.message:Message.decode", _arg_len(1)),
    Seam("net.round_trip", "repro.net.client:TcpRelayEndpoint.handle_request", _frame_len),
    Seam("api.call", "repro.api.builder:TransactionBuilder.execute"),
    Seam("api.call", "repro.api.builder:ExchangeBuilder.run"),
)

#: per-layer metric -> (seam names, what to report). ``calls`` and
#: ``bytes`` are per traced op; ``ms`` is self time per traced op.
METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "crypto.ec.scalar_mult_calls": (("crypto.ec.scalar_mult",), "calls"),
    "crypto.ec.scalar_mult_ms": (("crypto.ec.scalar_mult",), "ms"),
    "crypto.ecdsa.sign_calls": (("crypto.ecdsa.sign",), "calls"),
    "crypto.ecdsa.verify_calls": (("crypto.ecdsa.verify",), "calls"),
    "crypto.ecdsa.ms": (("crypto.ecdsa.sign", "crypto.ecdsa.verify"), "ms"),
    "crypto.ecies.encrypt_calls": (("crypto.ecies.encrypt",), "calls"),
    "crypto.ecies.decrypt_calls": (("crypto.ecies.decrypt",), "calls"),
    "crypto.ecies.ms": (("crypto.ecies.encrypt", "crypto.ecies.decrypt"), "ms"),
    "crypto.aead.calls": (("crypto.aead.seal", "crypto.aead.open"), "calls"),
    "crypto.aead.bytes": (("crypto.aead.seal", "crypto.aead.open"), "bytes"),
    "crypto.aead.ms": (("crypto.aead.seal", "crypto.aead.open"), "ms"),
    "crypto.certs.validate_chain_calls": (("crypto.certs.validate_chain",), "calls"),
    "crypto.certs.validate_chain_ms": (("crypto.certs.validate_chain",), "ms"),
    "interop.proofs.generate_calls": (("interop.proofs.generate",), "calls"),
    "interop.proofs.generate_ms": (("interop.proofs.generate",), "ms"),
    "interop.proofs.validate_calls": (("interop.proofs.validate",), "calls"),
    "interop.proofs.validate_ms": (("interop.proofs.validate",), "ms"),
    "interop.client.prepare_ms": (("interop.client.prepare",), "ms"),
    "interop.client.finalize_ms": (("interop.client.finalize",), "ms"),
    "interop.relay.handle_calls": (("interop.relay.handle",), "calls"),
    "interop.relay.handle_ms": (("interop.relay.handle",), "ms"),
    "interop.drivers.execute_ms": (("interop.drivers.execute",), "ms"),
    "fabric.peer.endorse_calls": (("fabric.peer.endorse",), "calls"),
    "fabric.peer.endorse_ms": (("fabric.peer.endorse",), "ms"),
    "fabric.peer.commit_ms": (("fabric.peer.commit",), "ms"),
    "fabric.orderer.ms": (("fabric.orderer.order",), "ms"),
    "quorum.submit_ms": (("quorum.submit",), "ms"),
    "assets.coordinator_ms": (("assets.coordinator",), "ms"),
    "assets.port_calls": (("assets.port",), "calls"),
    "assets.port_ms": (("assets.port",), "ms"),
    "store.apply_calls": (("store.apply",), "calls"),
    "store.apply_ms": (("store.apply",), "ms"),
    "proto.codec_calls": (("proto.codec",), "calls"),
    "proto.codec_bytes": (("proto.codec",), "bytes"),
    "proto.codec_ms": (("proto.codec",), "ms"),
    "net.round_trips": (("net.round_trip",), "calls"),
    "net.frame_bytes": (("net.round_trip",), "bytes"),
    "net.round_trip_ms": (("net.round_trip",), "ms"),
    "api.ms": (("api.call",), "ms"),
}
UNITS = {"calls": "count", "bytes": "bytes", "ms": "ms"}

#: The root span the runner opens around each traced operation.
OP_SEAM = "op"


class Tracer:
    """Installs seams and collects span records for the ops it is told of."""

    def __init__(self, seams: Iterable[Seam] = SEAMS) -> None:
        self._seams = tuple(seams)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._active = False
        self._op = -1
        self._caller_stack: list[list] = []
        self._local = threading.local()

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for seam in self._seams:
            try:
                owners = self._owners(seam.target)
            except (ImportError, AttributeError):
                owners = []
            if not owners:
                self.absent.append(seam.target)
            for owner, attribute in owners:
                self._wrap(seam, owner, attribute)

    @staticmethod
    def _owners(target: str) -> list[tuple[object, str]]:
        """Every namespace holding the seam: the defining module plus its
        by-name aliases, or the class plus the subclasses overriding it."""
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owners, pending = [], [getattr(module, class_name)]
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if attribute in vars(cls) and not getattr(
                    vars(cls)[attribute], "__isabstractmethod__", False
                ):
                    owners.append((cls, attribute))
            return owners
        original = getattr(module, path)
        package = module_name.split(".")[0]
        return [
            (candidate, alias)
            for name, candidate in list(sys.modules.items())
            if candidate is not None and (name == package or name.startswith(package + "."))
            for alias, value in list(vars(candidate).items())
            if value is original
        ]

    def _wrap(self, seam: Seam, owner: object, attribute: str) -> None:
        original = vars(owner)[attribute]
        function = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
        wrapper = functools.wraps(function)(self._wrapper(seam, function))
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(wrapper)
        setattr(owner, attribute, wrapper)

    def _wrapper(self, seam: Seam, function: Callable) -> Callable:
        name, size = seam.name, seam.size

        def traced(*args, **kwargs):
            if not self._active:
                return function(*args, **kwargs)
            stack = self._stack()
            # A span opened on a serve thread with nothing above it was
            # caused by whatever the one blocked caller is waiting in.
            parent = stack[-1] if stack else (self._caller_stack or [None])[-1]
            record = [name, parent, self._op, perf_counter_ns(), 0, 0]
            self.spans.append(record)
            stack.append(record)
            try:
                result = function(*args, **kwargs)
                if size is not None:
                    record[SIZE] = size(args, result)
                return result
            finally:
                record[END] = perf_counter_ns()
                stack.pop()

        return traced

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- per-op bracketing (called by the runner on the caller's thread) ----------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._caller_stack = self._stack()
        root = [OP_SEAM, None, op, perf_counter_ns(), 0, 0]
        self.spans.append(root)
        self._caller_stack.append(root)
        self._active = True

    def end_op(self) -> None:
        self._active = False
        root = self._caller_stack.pop()
        root[END] = perf_counter_ns()


# -- span arithmetic --------------------------------------------------------------


def covered(intervals: Sequence[tuple[int, int]], start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[list]) -> list[int]:
    """Each span's duration minus what its child spans cover, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(id(span), ()), span[START], span[END])
        for span in spans
    ]


def layer_table(spans: Sequence[list]) -> dict[str, dict[str, float]]:
    """Per seam name: ``calls``, ``bytes``, self-time ``ms`` and ``wall_ms``,
    each per traced op. The ``op`` root's self time is what no seam covers."""
    totals: dict[str, list[int]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = totals.setdefault(span[SEAM], [0, 0, 0, 0])
        row[0] += 1
        row[1] += span[SIZE]
        row[2] += own
        row[3] += span[END] - span[START]
    ops = totals.get(OP_SEAM, [1])[0]
    return {
        seam: {
            "calls": calls / ops,
            "bytes": size / ops,
            "ms": own / 1e6 / ops,
            "wall_ms": wall / 1e6 / ops,
        }
        for seam, (calls, size, own, wall) in totals.items()
    }


def layer_metrics(table: dict[str, dict[str, float]]) -> dict[str, dict]:
    """Every per-layer metric of BENCHMARK.json, zero where a seam saw no
    call on this workload (or is absent from the tree)."""
    metrics = {}
    for metric, (seams, kind) in METRICS.items():
        value = sum(table.get(seam, {}).get(kind, 0.0) for seam in seams)
        metrics[metric] = {"value": value, "unit": UNITS[kind]}
    root = table.get(OP_SEAM, {"ms": 0.0, "wall_ms": 0.0})
    coverage = 100.0 * (1 - root["ms"] / root["wall_ms"]) if root["wall_ms"] else 0.0
    metrics["trace.coverage_pct"] = {"value": coverage, "unit": "%"}
    return metrics
