"""Cross-network transaction invocation (the §5 extension).

"The query protocol presented in this paper can be easily extended to
enable cross-network chaincode invocations. While the sequence of steps is
expected to be different, the relay service, system contracts, and
application client support described earlier can be reused directly."

This module is that extension. A cross-network *transaction* reuses the
query machinery end to end — addressing, exposure control, relays,
attestation proofs — with two differences:

1. the source driver routes the request through the source network's
   normal endorse-order-commit pipeline (under a dedicated local *invoker*
   identity, since the foreign client is not a source-network member), and
2. the returned attestations cover the *committed* outcome: the sealed
   result holds the transaction id, block number and validation code
   beside the function's return value, and each peer's signed metadata
   carries that outcome's digest, so the destination can verify that the
   update really entered the source ledger.

Exposure control is the same gate, over the same
``<network, org, chaincode, function>`` rules — a governance decision
must whitelist each remotely-invokable function, exactly as for queries.

The client half is the query client's own: a transaction is a request
whose wire ``invocation`` is
:data:`~repro.proto.messages.INVOCATION_TRANSACTION`, built by
:meth:`~repro.interop.client.InteropClient.prepare_query` and checked by
:meth:`~repro.interop.client.InteropClient.finalize_response`, which
reads the committed outcome into a
:class:`~repro.interop.client.RemoteTransactionResult` only after the
attestations bind it. On Fabric the source half is the network's own
driver (:meth:`~repro.interop.drivers.base.NetworkDriver.execute_transaction`
over :class:`~repro.interop.drivers.fabric_driver.FabricDriver`'s hooks),
granted the capability by :func:`enable_remote_transactions`.
"""

from __future__ import annotations

from repro.fabric.identity import Identity
from repro.fabric.network import FabricNetwork


def enable_remote_transactions(network: FabricNetwork, relay, invoker: Identity) -> None:
    """Grant the transaction capability to ``network``'s driver on ``relay``,
    with ``invoker`` as the local submitter for remote requests."""
    relay.driver_for(network.name).enable_transactions(invoker)
