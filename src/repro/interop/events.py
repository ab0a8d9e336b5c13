"""Cross-network event publish/subscribe (the §2 third primitive).

Networks "should expose the following operations for interoperability:
(i) query ... (ii) carry out transactions ... and (iii) publish and
subscribe to events" (§2); cross-network events are named future work in
§7. This module holds the source side's mechanism for the
notify-then-verify pattern:

- A destination application *subscribes* through its local relay to named
  events of a remote network (``MSG_KIND_EVENT_SUBSCRIBE``). The source
  driver admits the subscription through the network's one access gate
  (:func:`repro.interop.access.authorise`) under the rule object
  ``event:<name>``, exactly as it admits a query: the subscriber's
  certificate must chain to a recorded root and name the org it claims.
- The source relay bridges its network's event hub to remote subscribers,
  forwarding compact, *unauthenticated* notifications
  (:class:`RemoteEventNotification`: block number, transaction id,
  payload) as ``MSG_KIND_EVENT_PUBLISH`` envelopes.
- Because notifications are not consensus-backed, the subscriber turns a
  notification into *trusted* data with a follow-up proof-carrying query
  (``VerifiedEventStream`` in :mod:`repro.api`). This keeps the trust
  argument identical to the paper's: only attestation proofs are believed.

:func:`enable_relay_events` switches a Fabric network's relay driver on
for that path; :func:`open_hub_tap` is the tap it opens once the gate
has admitted a subscriber.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DiscoveryError
from repro.fabric.events import ChaincodeEvent
from repro.fabric.network import FabricNetwork


@dataclass(frozen=True)
class RemoteEventNotification:
    """An unauthenticated event notification from a remote network."""

    source_network: str
    chaincode: str
    name: str
    payload: bytes
    block_number: int
    tx_id: str


EventCallback = Callable[[RemoteEventNotification], None]


@dataclass
class HubTap:
    """A closeable listener registration on a network's event hub.

    The hub offers no unregistration, so closing flips a flag the
    listener closure checks — the registration stays but goes inert.
    """

    network_id: str
    chaincode: str
    event_name: str
    active: bool = True

    def close(self) -> None:
        self.active = False


def open_hub_tap(
    network: FabricNetwork,
    chaincode: str,
    event_name: str,
    listener: EventCallback,
) -> HubTap:
    """Tap ``network``'s event hub, delivering wire-shape notifications.

    Each matching committed :class:`ChaincodeEvent` is normalized into a
    :class:`RemoteEventNotification` and handed to ``listener`` while the
    returned tap is open. Admitting the subscriber is the caller's job —
    the tap is mechanism, not policy.
    """
    tap = HubTap(network_id=network.name, chaincode=chaincode, event_name=event_name)

    def _fan_out(event: ChaincodeEvent) -> None:
        if not tap.active:
            return
        listener(
            RemoteEventNotification(
                source_network=network.name,
                chaincode=event.chaincode,
                name=event.name,
                payload=event.payload,
                block_number=event.block_number,
                tx_id=event.tx_id,
            )
        )

    network.event_hub.on_chaincode_event(chaincode, event_name, _fan_out)
    return tap


def enable_relay_events(network: FabricNetwork, relay) -> None:
    """Switch ``network``'s relay driver on for relay-side subscriptions.

    After this call the relay serves ``MSG_KIND_EVENT_SUBSCRIBE``
    envelopes for the network and pushes ``MSG_KIND_EVENT_PUBLISH``
    notifications to subscriber networks through discovery + failover.
    """
    driver = relay.driver_for(network.name)
    if driver is None:
        raise DiscoveryError(
            f"relay {relay.relay_id!r} has no driver for network "
            f"{network.name!r} to enable events on"
        )
    driver.enable_events()
