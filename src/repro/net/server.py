"""The relay as a real network service: an asyncio TCP frame server.

:class:`RelayServer` is the deployment shape the paper implies — "the
relay service serves requests for authentic data" (§3.2) *from remote
parties over the wire*. It listens on a socket, speaks the
length-prefixed envelope framing of :mod:`repro.net.framing`, and serves
requests **concurrently**: the asyncio loop multiplexes connections and
frame I/O, while each request's actual serving — the existing synchronous
:meth:`RelayService.handle_request` path (interceptor chain, dispatch,
driver, proof collection) — runs on a bounded worker-thread executor.
Nothing about the relay's protocol behavior changes; the server is a
transport shell around the very same object the in-process tests drive.

Failure semantics mirror the in-process contract:

- protocol-level failures are *answered* (error envelopes travel back as
  ordinary frames — a remote relay cannot catch our exceptions);
- a relay that is down (:class:`RelayUnavailableError`) or a client that
  sends unframeable bytes gets its connection closed, which the peer's
  :class:`~repro.net.client.TcpRelayEndpoint` surfaces as the same typed
  :class:`RelayUnavailableError` the failover loop already handles.

The server owns a private event loop on a daemon thread, so synchronous
deployments (and tests) just call :meth:`start` / :meth:`stop`; asyncio
applications embed it with :meth:`start_async` / :meth:`stop_async`.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import DecodeError, RelayUnavailableError
from repro.net.framing import DEFAULT_MAX_FRAME_BYTES, read_frame, write_frame
from repro.ops.metrics import CounterSet, MetricsRegistry
from repro.ops.trace import TRACE_ID_HEADER

#: Transport-layer structured logging (see :mod:`repro.ops.logging`).
logger = logging.getLogger("repro.net")

#: The server's monotonic counts, each one series of its
#: ``repro_relay_server_total`` counter (``server.stats.<name>``).
_FRAME_COUNTS = (
    "connections_accepted",
    "connections_closed",
    "frames_served",
    "frames_rejected",
)


class RelayServer:
    """Serves one :class:`RelayService` on a TCP socket, concurrently.

    ``max_workers`` sizes the executor that runs the synchronous serve
    path: it is the server's concurrency ceiling. ``max_workers=1``
    degenerates to single-in-flight serving (useful as a benchmark
    baseline, or for fronting a substrate that cannot take concurrent
    load *without* installing a
    :class:`~repro.api.SerializingInterceptor`). Frames pipelined on one
    connection are served concurrently too; replies are written in
    completion order, each as one atomic frame (the client's
    one-in-flight-per-connection discipline means ordering never
    matters to a conforming peer).
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_pipeline_depth: int = 32,
        probe_port: int | None = None,
        registry=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_pipeline_depth < 1:
            raise ValueError("max_pipeline_depth must be >= 1")
        self.service = service
        #: ``probe_port`` opens the ops plane: an HTTP listener on its own
        #: port (0 = ephemeral) serving ``/metrics``, ``/healthz`` and
        #: ``/readyz`` next to the frame socket. ``registry`` shares a
        #: :class:`~repro.ops.MetricsRegistry` across servers; omitted, a
        #: private one is created. ``None`` keeps the probe plane off.
        self.probe_port = probe_port
        self.registry = registry
        self.probe = None  # the live OpsProbeServer while started
        self._ops_wired = False  # exporters register once, not per (re)start
        self._requested_host = host
        self._requested_port = port
        self.max_workers = max_workers
        self.max_frame_bytes = max_frame_bytes
        #: Per-connection bound on frames in flight: past it the read
        #: loop stops pulling bytes, so TCP flow control pushes back on
        #: the peer instead of the server buffering unbounded frames —
        #: without this, pipelining would bypass ``max_frame_bytes`` as
        #: a memory bound (N frames x 8 MB each, all queued).
        self.max_pipeline_depth = max_pipeline_depth
        #: This server's instruments; ``register_server`` attaches them
        #: to the probe's shared registry for export.
        self.instruments = MetricsRegistry()
        # Any object serving frames will do; one without a relay_id is
        # labelled the way RelayService names itself by default.
        relay = {"relay_id": getattr(service, "relay_id", f"relay-{service.network_id}")}
        counts = self.instruments.counter(
            "repro_relay_server_total", "TCP frame-server counters.", ("relay_id", "counter")
        )
        in_flight = self.instruments.gauge(
            "repro_relay_server_in_flight", "Frames currently being served.", ("relay_id",)
        )
        peak = self.instruments.gauge(
            "repro_relay_server_in_flight_peak",
            "Peak concurrently-served frames since start.",
            ("relay_id",),
        )
        self.stats = CounterSet(
            {
                **{name: (counts, {**relay, "counter": name}) for name in _FRAME_COUNTS},
                "in_flight": (in_flight, relay),
                "in_flight_peak": (peak, relay),
            },
            peaks={"in_flight": "in_flight_peak"},
        )
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.host: str | None = None
        self.port: int | None = None

    # -- addressing ---------------------------------------------------------------

    @property
    def address(self) -> str:
        """The bound ``tcp://host:port`` address (after start)."""
        if self.host is None or self.port is None:
            raise RuntimeError("server is not started")
        return f"tcp://{self.host}:{self.port}"

    def endpoint(self, timeout: float = 10.0, **kwargs):
        """A fresh :class:`TcpRelayEndpoint` dialed at this server."""
        from repro.net.client import TcpRelayEndpoint

        if self.host is None or self.port is None:
            raise RuntimeError("server is not started")
        return TcpRelayEndpoint(self.host, self.port, timeout=timeout, **kwargs)

    # -- async lifecycle ----------------------------------------------------------

    async def start_async(self) -> "RelayServer":
        """Bind and start accepting on the current event loop."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix=f"relay-{self.service.network_id}",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._requested_host, self._requested_port
        )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        if self.probe_port is not None:
            await self._start_probe()
        self._started.set()
        return self

    async def _start_probe(self) -> None:
        """Stand up the ops probe listener next to the frame socket.

        Lazy imports: :mod:`repro.ops.exporters` pulls in the api and
        relay layers, which import :mod:`repro.ops` themselves — by serve
        time everything is loaded, at module-import time it would cycle.
        """
        from repro.ops import OpsProbeServer, relay_checks
        from repro.ops.exporters import register_relay, register_server

        if self.registry is None:
            self.registry = MetricsRegistry()
        if not self._ops_wired:
            register_server(self.registry, self)
            register_relay(self.registry, self.service)
            self._ops_wired = True
        health = relay_checks(self.service)
        health.add_check(
            "executor_accepting",
            lambda: (self._executor is not None, f"{self.max_workers} workers"),
        )
        self.probe = OpsProbeServer(
            registry=self.registry,
            health=health,
            host=self._requested_host,
            port=self.probe_port,
        )
        await self.probe.start_async()

    async def stop_async(self) -> None:
        if self.probe is not None:
            await self.probe.stop_async()
            self.probe = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    # -- sync lifecycle (private loop on a daemon thread) -------------------------

    def start(self) -> "RelayServer":
        """Start on a private background event loop; returns when bound.

        A stopped server can be started again; it binds a fresh socket
        (and, with ``port=0``, gets a fresh ephemeral port).
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._started.clear()
        self._startup_error = None
        self.host = self.port = None
        self._thread = threading.Thread(
            target=self._run_loop,
            name=f"relay-server-{self.service.network_id}",
            daemon=True,
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=10.0)
            self._thread = None
            raise RuntimeError(f"relay server failed to start: {error}") from error
        if not self._started.is_set():
            raise RuntimeError("relay server did not start within 10s")
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = loop.create_future()
        self._stop_future = stop
        try:
            loop.run_until_complete(self.start_async())
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        try:
            loop.run_until_complete(stop)
            loop.run_until_complete(self.stop_async())
            # Let cancelled connection tasks unwind before closing the loop.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            loop.close()

    def stop(self) -> None:
        """Stop a :meth:`start`-ed server and join its loop thread."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and not loop.is_closed():
            def _finish() -> None:
                if not self._stop_future.done():
                    self._stop_future.set_result(None)

            try:
                loop.call_soon_threadsafe(_finish)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None
        self._started.clear()
        self.host = self.port = None

    def __enter__(self) -> "RelayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the serve path -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.bump("connections_accepted")
        write_lock = asyncio.Lock()
        pipeline_slots = asyncio.Semaphore(self.max_pipeline_depth)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                # Backpressure: don't even read the next frame while the
                # connection already has max_pipeline_depth in flight.
                await pipeline_slots.acquire()
                try:
                    frame = await read_frame(reader, self.max_frame_bytes)
                except DecodeError:
                    # Unframeable inbound bytes: the stream cannot be
                    # resynchronized — drop the connection. The peer sees
                    # a typed transport failure, not silent misbehavior.
                    pipeline_slots.release()
                    self.stats.bump("frames_rejected")
                    break
                if frame is None:
                    pipeline_slots.release()
                    break  # clean EOF
                task = asyncio.ensure_future(
                    self._serve_frame(frame, writer, write_lock)
                )
                tasks.add(task)

                def finished(done: asyncio.Task, slots=pipeline_slots) -> None:
                    tasks.discard(done)
                    slots.release()

                task.add_done_callback(finished)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self.stats.bump("connections_closed")

    def _log_frame(self, frame: bytes) -> None:
        """DEBUG-gated trace-correlated frame log (best-effort peek).

        The serve itself runs on an executor thread where
        ``handle_request`` activates the envelope's trace; this log runs
        on the asyncio loop *outside* that context, so the trace id is
        read straight off the envelope headers and passed explicitly.
        """
        from repro.proto.messages import RelayEnvelope

        try:
            envelope = RelayEnvelope.decode(frame)
        except Exception:  # noqa: BLE001 - undecodable frames are _dispatch's problem; the peek never rejects
            logger.debug(
                "frame received (undecodable envelope)",
                extra={"relay_id": self.service.relay_id, "bytes_in": len(frame)},
            )
            return
        logger.debug(
            "frame received",
            extra={
                "relay_id": self.service.relay_id,
                "request_id": envelope.request_id,
                "kind": envelope.kind,
                "bytes_in": len(frame),
                "trace_id": envelope.headers.get(TRACE_ID_HEADER, ""),
            },
        )

    async def _serve_frame(
        self,
        frame: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        loop = asyncio.get_running_loop()
        if logger.isEnabledFor(logging.DEBUG):
            self._log_frame(frame)
        self.stats.bump("in_flight")
        try:
            reply = await loop.run_in_executor(
                self._executor, self.service.handle_request, frame
            )
        except RelayUnavailableError:
            # The relay models itself as down: over the wire that is a
            # dead service, so the connection dies with it.
            self.stats.bump("frames_rejected")
            writer.close()
            return
        except Exception:  # noqa: BLE001 - a serve bug must not hang peers
            self.stats.bump("frames_rejected")
            writer.close()
            return
        finally:
            self.stats.bump("in_flight", -1)
        # Counted when serving completes, before the reply flushes: a
        # client that has read its reply must never observe a count that
        # hasn't included it yet.
        self.stats.bump("frames_served")
        async with write_lock:
            if writer.is_closing():
                return
            write_frame(writer, reply)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return
