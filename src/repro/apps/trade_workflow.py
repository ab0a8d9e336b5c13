"""The end-to-end use case: STL + SWT with trusted data transfer.

Builds both networks, augments them for interoperation (system contracts,
endorsement plugin, relays, mutual configuration records), and runs the
ten steps of Figure 3 — including the cross-network bill-of-lading query
of step 9 with its verification policy "proof from a peer in both the
Seller and Carrier organizations" (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.stl.applications import (
    CarrierApp,
    StlSellerApp,
    build_stl_network,
    deploy_stl_chaincode,
)
from repro.apps.stl.chaincode import (
    STL_CARRIER_ORG,
    STL_CHAINCODE_NAME,
    STL_NETWORK_ID,
    STL_SELLER_ORG,
)
from repro.apps.swt.applications import (
    BuyerApp,
    BuyerBankApp,
    SellerBankApp,
    SwtSellerClient,
    build_swt_network,
    deploy_swt_chaincode,
)
from repro.apps.swt.chaincode import (
    SWT_BUYER_BANK_ORG,
    SWT_NETWORK_ID,
    SWT_SELLER_BANK_ORG,
    STL_BL_ADDRESS,
)
from repro.fabric.network import FabricNetwork
from repro.interop.bootstrap import (
    create_fabric_relay,
    enable_fabric_interop,
    link_networks,
)
from repro.interop.contracts.ecc import ECC_NAME
from repro.interop.discovery import DiscoveryService, InMemoryRegistry
from repro.interop.relay import RateLimiter, RateLimitInterceptor, RelayService
from repro.utils.clock import Clock


@dataclass
class TradeScenario:
    """Everything assembled for the use case."""

    stl: FabricNetwork
    swt: FabricNetwork
    discovery: DiscoveryService
    stl_relays: list[RelayService]
    swt_relay: RelayService
    stl_seller_app: StlSellerApp
    carrier_app: CarrierApp
    buyer_app: BuyerApp
    buyer_bank_app: BuyerBankApp
    seller_bank_app: SellerBankApp
    swt_seller_client: SwtSellerClient

    @property
    def stl_relay(self) -> RelayService:
        return self.stl_relays[0]


@dataclass
class UseCaseResult:
    """Step-by-step record of one full use-case run (Figure 3)."""

    po_ref: str
    steps: list[str] = field(default_factory=list)
    bill_of_lading: dict | None = None
    final_lc: dict | None = None


def build_trade_scenario(
    clock: Clock | None = None,
    discovery: DiscoveryService | None = None,
    stl_relay_count: int = 1,
    stl_rate_limit: RateLimiter | None = None,
    verification_policy: str | None = None,
) -> TradeScenario:
    """Assemble STL and SWT and wire them for interoperation.

    ``stl_relay_count`` deploys redundant source relays (the paper's DoS
    mitigation); ``verification_policy`` overrides SWT's recorded policy
    about STL (defaults to the paper's: a peer from both STL orgs).
    """
    registry = discovery if discovery is not None else InMemoryRegistry()

    stl = build_stl_network(clock=clock)
    swt = build_swt_network(clock=clock)
    stl_admin = stl.org(STL_SELLER_ORG).member("admin")
    swt_admin = swt.org(SWT_BUYER_BANK_ORG).member("admin")

    # Application chaincodes (the original, non-interoperable networks).
    deploy_stl_chaincode(stl, stl_admin)
    deploy_swt_chaincode(swt, swt_admin)

    # Augmentation for interoperability (§4.3 initialization).
    enable_fabric_interop(stl, stl_admin)
    enable_fabric_interop(swt, swt_admin)

    policy = verification_policy or (
        f"AND(org:{STL_SELLER_ORG}, org:{STL_CARRIER_ORG})"
    )
    link_networks(
        swt,
        swt_admin,
        stl,
        stl_admin,
        policy_a_about_b=policy,  # SWT's policy about STL
        policy_b_about_a=f"AND(org:{SWT_BUYER_BANK_ORG}, org:{SWT_SELLER_BANK_ORG})",
    )

    # The exposure-control rule of §4.3: members of SWT's seller org may
    # call GetBillOfLading. (The paper writes the network id as
    # "we-trade"; this repo's SWT network id is "swt".)
    stl.gateway.submit(
        stl_admin,
        ECC_NAME,
        "AddAccessRule",
        [SWT_NETWORK_ID, SWT_SELLER_BANK_ORG, STL_CHAINCODE_NAME, "GetBillOfLading"],
    )

    # Relays: possibly-redundant relays for STL, one for SWT.
    stl_relays = [
        create_fabric_relay(
            stl,
            registry,
            relay_id=f"relay-stl-{index}",
            middleware=[RateLimitInterceptor(stl_rate_limit)] if stl_rate_limit is not None else None,
        )
        for index in range(stl_relay_count)
    ]
    swt_relay = create_fabric_relay(swt, registry, relay_id="relay-swt-0")

    # Applications.
    stl_seller_app = StlSellerApp(stl, stl.org(STL_SELLER_ORG).member("seller-app"))
    carrier_app = CarrierApp(stl, stl.org(STL_CARRIER_ORG).member("carrier-app"))
    buyer_app = BuyerApp(swt, swt.org(SWT_BUYER_BANK_ORG).member("buyer"))
    buyer_bank_app = BuyerBankApp(
        swt, swt.org(SWT_BUYER_BANK_ORG).member("buyer-bank-app")
    )
    seller_bank_app = SellerBankApp(
        swt, swt.org(SWT_SELLER_BANK_ORG).member("seller-bank-app")
    )
    swt_seller_client = SwtSellerClient(
        swt,
        swt.org(SWT_SELLER_BANK_ORG).member("seller"),
        relay=swt_relay,
        bl_address=STL_BL_ADDRESS,
    )

    return TradeScenario(
        stl=stl,
        swt=swt,
        discovery=registry,
        stl_relays=stl_relays,
        swt_relay=swt_relay,
        stl_seller_app=stl_seller_app,
        carrier_app=carrier_app,
        buyer_app=buyer_app,
        buyer_bank_app=buyer_bank_app,
        seller_bank_app=seller_bank_app,
        swt_seller_client=swt_seller_client,
    )


def run_full_use_case(
    scenario: TradeScenario,
    po_ref: str = "PO-2019-0001",
    goods: str = "40ft container of machine parts",
    amount: float = 250_000.0,
    confidential: bool = True,
) -> UseCaseResult:
    """Execute Figure 3's ten steps end to end."""
    result = UseCaseResult(po_ref=po_ref)
    record = result.steps.append

    record(f"1. Purchase order {po_ref} negotiated offline between seller and buyer")

    scenario.buyer_app.request_lc(po_ref, "buyer-corp", "seller-corp", amount)
    record(f"2-3. Buyer requested an L/C for {po_ref} on SWT")
    lc = scenario.buyer_bank_app.issue_lc(po_ref)
    record(f"4. Buyer's bank issued the L/C (status={lc['status']})")

    scenario.stl_seller_app.create_shipment(po_ref, goods)
    record(f"5. Seller created shipment for {po_ref} on STL")
    scenario.carrier_app.accept_shipment(po_ref)
    record("6. Carrier accepted the shipment")
    scenario.carrier_app.record_handover(po_ref)
    record("7. Carrier took possession of the shipment")
    bl = scenario.carrier_app.issue_bill_of_lading(po_ref, vessel="MV Simulated")
    record(f"8. Carrier issued bill of lading {bl['bl_id']}")

    fetched = scenario.swt_seller_client.fetch_bill_of_lading(
        po_ref, confidential=confidential
    )
    result.bill_of_lading = __import__("json").loads(fetched.data)
    record(
        f"9. SWT seller fetched the B/L from STL via cross-network query "
        f"({len(fetched.proof)} attestations)"
    )
    lc = scenario.swt_seller_client.upload_dispatch_docs(po_ref, fetched)
    record(f"9b. Dispatch docs accepted on SWT after proof validation "
           f"(status={lc['status']})")

    lc = scenario.seller_bank_app.request_payment(po_ref)
    record(f"10. Seller's bank requested payment (status={lc['status']})")
    lc = scenario.buyer_bank_app.make_payment(po_ref)
    record(f"10b. Buyer's bank paid (status={lc['status']})")

    result.final_lc = lc
    return result
