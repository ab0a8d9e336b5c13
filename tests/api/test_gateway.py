"""Tests for the unified ``repro.api`` gateway: façade, builder, pipeline."""

from __future__ import annotations

import json

import pytest

from repro.api import InteropGateway, QuerySpec
from repro.errors import RelayError
from repro.interop.bootstrap import create_interop_gateway
from repro.proto.messages import INVOCATION_QUERY

BL_ADDRESS = "stl/trade-logistics/TradeLensCC/GetBillOfLading"
POLICY = "AND(org:seller-org, org:carrier-org)"


@pytest.fixture()
def gateway(shipped_scenario):
    scenario, po_ref = shipped_scenario
    return (
        InteropGateway.from_client(scenario.swt_seller_client.interop_client),
        scenario,
        po_ref,
    )


class TestBuilder:
    def test_fluent_spec(self, shipped_scenario):
        scenario, _ = shipped_scenario
        gateway = InteropGateway.from_client(scenario.swt_seller_client.interop_client)
        spec = (
            gateway.query(BL_ADDRESS)
            .with_args("PO-1", "extra")
            .with_policy(POLICY)
            .plain()
            .build()
        )
        assert spec == QuerySpec(
            address=BL_ADDRESS,
            args=["PO-1", "extra"],
            policy=POLICY,
            confidential=False,
        )

    def test_defaults_are_confidential_and_verified(self, gateway):
        gw, _, _ = gateway
        spec = gw.query(BL_ADDRESS).build()
        assert spec.confidential and spec.policy is None
        assert spec.invocation == INVOCATION_QUERY

    def test_execute_runs_immediately(self, gateway):
        gw, _, po_ref = gateway
        result = gw.query(BL_ADDRESS).with_args(po_ref).with_policy(POLICY).execute()
        assert json.loads(result.data)["bl_id"] == f"BL-{po_ref}"

    def test_unbound_builder_cannot_submit(self, gateway):
        gw, _, _ = gateway
        from repro.api.builder import QueryBuilder

        builder = QueryBuilder(gw.client, BL_ADDRESS)
        with pytest.raises(RuntimeError, match="not bound"):
            builder.submit()


class TestPipeline:
    def test_submit_is_lazy_and_result_flushes(self, gateway):
        gw, scenario, po_ref = gateway
        sent_before = scenario.swt_relay.stats.queries_sent
        handle = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        assert not handle.done()
        assert scenario.swt_relay.stats.queries_sent == sent_before
        assert json.loads(handle.result().data)["po_ref"] == po_ref
        assert handle.done()

    def test_same_target_queries_share_one_batch(self, gateway):
        gw, scenario, po_ref = gateway
        batches_before = scenario.stl_relay.stats.batches_served
        first = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        second = gw.query(BL_ADDRESS).with_args(po_ref).plain().submit()
        results = [first.result(), second.result()]
        assert scenario.stl_relay.stats.batches_served == batches_before + 1
        assert all(json.loads(r.data)["po_ref"] == po_ref for r in results)
        # confidentiality is still per member
        assert results[0].response.result_cipher and not results[0].response.result_plain
        assert results[1].response.result_plain and not results[1].response.result_cipher

    def test_fresh_nonce_per_batch_member(self, gateway):
        gw, _, po_ref = gateway
        first = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        second = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        assert first.result().nonce != second.result().nonce

    def test_partial_failure_does_not_poison_batch(self, gateway):
        """One bad member fails on its own handle; the rest succeed."""
        gw, _, po_ref = gateway
        good = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        bad = gw.query(BL_ADDRESS).with_args("PO-NO-SUCH").submit()
        also_good = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        assert isinstance(bad.exception(), RelayError)
        assert "no bill of lading" in str(bad.exception())
        assert json.loads(good.result().data)["po_ref"] == po_ref
        assert json.loads(also_good.result().data)["po_ref"] == po_ref
        with pytest.raises(RelayError):
            bad.result()

    def test_explicit_queryset_results(self, gateway):
        gw, _, po_ref = gateway
        queryset = gw.batch()
        queryset.query(BL_ADDRESS).with_args(po_ref).submit()
        queryset.query(BL_ADDRESS).with_args(po_ref).submit()
        results = queryset.results()
        assert len(results) == 2
        assert len(queryset) == 0

    def test_build_then_submit_binds_one_ambient_set(self, gateway):
        """Builders created before any submit() must share one batch."""
        gw, scenario, po_ref = gateway
        batches_before = scenario.swt_relay.stats.batches_sent
        first_builder = gw.query(BL_ADDRESS).with_args(po_ref)
        second_builder = gw.query(BL_ADDRESS).with_args(po_ref)
        first = first_builder.submit()
        second = second_builder.submit()
        resolved = gw.dispatch()
        assert set(resolved) == {first, second}
        assert first.done() and second.done()
        assert scenario.swt_relay.stats.batches_sent == batches_before + 1

    def test_dispatch_flushes_ambient_set(self, gateway):
        gw, _, po_ref = gateway
        handle = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        resolved = gw.dispatch()
        assert handle in resolved and handle.done()
        assert gw.dispatch() == []

    def test_policy_lookup_amortized_across_members(self, gateway):
        """Members without an explicit policy trigger one CMDAC lookup."""
        gw, scenario, po_ref = gateway
        calls = []
        original = gw.client.lookup_policy
        gw.client.lookup_policy = lambda network: (  # type: ignore[method-assign]
            calls.append(network) or original(network)
        )
        first = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        second = gw.query(BL_ADDRESS).with_args(po_ref).submit()
        first.result(), second.result()
        assert calls == ["stl"]


class TestFacade:
    def test_constructor_requires_client_or_parts(self):
        with pytest.raises(TypeError, match="needs either"):
            InteropGateway()

    def test_constructor_from_parts(self, shipped_scenario):
        scenario, po_ref = shipped_scenario
        seller = scenario.swt.org("seller-bank-org").member("seller")
        gateway = InteropGateway(
            seller, scenario.swt_relay, "swt", ledger_gateway=scenario.swt.gateway
        )
        result = gateway.query(BL_ADDRESS).with_args(po_ref).with_policy(POLICY).execute()
        assert json.loads(result.data)["po_ref"] == po_ref

    def test_bootstrap_helper(self, shipped_scenario):
        scenario, po_ref = shipped_scenario
        seller = scenario.swt.org("seller-bank-org").member("seller")
        gateway = create_interop_gateway(
            seller, scenario.swt_relay, "swt", ledger_gateway=scenario.swt.gateway
        )
        assert gateway.network_id == "swt"
        assert gateway.relay is scenario.swt_relay

    def test_batch_results_raise_the_first_failure(self, gateway):
        gw, _, po_ref = gateway
        batch = gw.batch()
        for ref in (po_ref, "PO-NO-SUCH", po_ref):
            batch.query(BL_ADDRESS).with_args(ref).with_policy(POLICY).submit()
        with pytest.raises(RelayError, match="no bill of lading"):
            batch.results()

    def test_legacy_client_shim_unchanged(self, gateway):
        """The wrapped legacy client answers exactly as before."""
        gw, _, po_ref = gateway
        legacy = gw.client.remote_query(BL_ADDRESS, [po_ref], policy=POLICY)
        assert json.loads(legacy.data)["bl_id"] == f"BL-{po_ref}"
