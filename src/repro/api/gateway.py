"""The unified application-facing gateway façade.

:class:`InteropGateway` is the one entry point a production application
needs: all three §2 interoperability primitives — fluent single and
pipelined/batched *queries*, proof-verified *transactions*, and verified
*event subscriptions* — plus access to the relay's middleware chain, all
over the same trusted-data-transfer machinery the paper specifies (the
gateway never weakens the protocol; it only changes how requests are
*composed*).

Example::

    gateway = InteropGateway(app_identity, relay, "swt",
                             ledger_gateway=network.gateway)

    # one-shot fluent query
    result = gateway.query(ADDR).with_args("PO-1").confidential().execute()

    # pipelined batch: one envelope round-trip per target network
    handles = [
        gateway.query(ADDR).with_args(ref).submit() for ref in refs
    ]
    documents = [handle.result() for handle in handles]

    # cross-network transaction, attested over the committed tx id/block
    outcome = gateway.transact(TX_ADDR).with_args("PO-2", "goods").execute()

    # notify-then-verify event stream over relay envelopes
    stream = gateway.subscribe("stl/trade-logistics/TradeLensCC",
                               "BillOfLadingIssued", verifier=verifier)

The gateway is itself a :class:`GatewaySession` (one identity, one relay
chain, one shared policy cache); ``session()`` opens independent ones.
The client it wraps (:class:`repro.interop.InteropClient`) stays
available as :attr:`client`.
"""

from __future__ import annotations

from repro.api.session import GatewaySession
from repro.fabric.gateway import Gateway
from repro.fabric.identity import Identity
from repro.interop.client import InteropClient
from repro.interop.relay import RelayInterceptor, RelayService


class InteropGateway(GatewaySession):
    """Façade over one identity's cross-network capabilities.

    It is that identity's default session; it adds construction from
    parts, middleware installation, and further sessions.
    """

    def __init__(
        self,
        identity: Identity | None = None,
        relay: RelayService | None = None,
        network_id: str | None = None,
        ledger_gateway: Gateway | None = None,
        client: InteropClient | None = None,
    ) -> None:
        if client is None:
            if identity is None or relay is None or network_id is None:
                raise TypeError(
                    "InteropGateway needs either a ready InteropClient or "
                    "(identity, relay, network_id)"
                )
            client = InteropClient(identity, relay, network_id, gateway=ledger_gateway)
        super().__init__(client)

    @classmethod
    def from_client(cls, client: InteropClient) -> "InteropGateway":
        """Wrap an existing client without rebuilding it."""
        return cls(client=client)

    def use(self, *interceptors: RelayInterceptor) -> "InteropGateway":
        """Install middleware on the underlying relay; returns ``self``."""
        self.relay.use(*interceptors)
        return self

    def session(self) -> GatewaySession:
        """Open an independent multiplexed session (own ambient set,
        policy cache, and subscription lifecycle) over the same client."""
        return GatewaySession(self.client)
