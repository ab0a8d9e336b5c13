"""repro.net: the relay's real-network transport layer.

The paper's relays are services that untrusted parties reach *over the
wire*; this package takes the reproduction's envelope protocol onto real
sockets without touching a single protocol rule:

- :mod:`repro.net.framing` — length-prefixed envelope frames (varint
  prefix, defensive decoding, typed :class:`~repro.errors.DecodeError`
  on garbage/oversize/truncation);
- :mod:`repro.net.transport` — the pluggable :class:`RelayTransport`
  seam between discovery addresses and live endpoints, with
  :class:`LocalTransport` (the named form of the original in-process
  call) and :class:`TcpTransport` (``tcp://host:port`` dialing);
- :mod:`repro.net.client` — :class:`TcpRelayEndpoint`, a pooled,
  per-request-timeout client adapter that fails over exactly like a
  dead in-process relay (typed :class:`RelayUnavailableError`);
- :mod:`repro.net.server` — :class:`RelayServer`, an asyncio TCP
  server that serves the existing synchronous
  :class:`~repro.interop.relay.RelayService` concurrently on a
  worker-thread executor;
- :mod:`repro.net.balancer` — :class:`BalancedDiscovery` /
  :class:`EndpointPool`, client-side load balancing over redundant
  relay replicas (power-of-two-choices for reads, consistent-hash
  stickiness for side effects) with ``/readyz``-driven
  :class:`ReadinessMonitor` eviction.

Trust boundary: the socket is the *untrusted edge*. Everything a
malicious peer can do to a frame — drop, delay, duplicate, corrupt — is
below the protocol's protection boundary; proofs verify end to end, so
transported data is exactly as trustworthy as in-process data.
"""

from repro.net.balancer import (
    BalancedDiscovery,
    EndpointPool,
    ReadinessMonitor,
    endpoint_key,
)
from repro.net.client import TcpRelayEndpoint
from repro.net.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.net.server import RelayServer
from repro.net.transport import (
    LocalTransport,
    RelayTransport,
    TcpTransport,
    address_scheme,
    parse_tcp_address,
)

__all__ = [
    "BalancedDiscovery",
    "DEFAULT_MAX_FRAME_BYTES",
    "EndpointPool",
    "FrameDecoder",
    "LocalTransport",
    "ReadinessMonitor",
    "endpoint_key",
    "RelayServer",
    "RelayTransport",
    "TcpRelayEndpoint",
    "TcpTransport",
    "address_scheme",
    "encode_frame",
    "parse_tcp_address",
    "read_frame",
    "write_frame",
]
