"""Steady-state work of one cross-network query: each identity verified once.

Every request re-validates the same long-lived certificates (the client's
at the source's access gate, each attesting peer's at the client), and
``repro.crypto.certs`` memoises the one expensive step, the issuer's
signature check. After the first request, then, a query costs no chain
verify at all: ``ecdsa.verify`` runs once per attestation and nowhere else.
A change that puts a chain verify back on the per-request path fails here.
"""

from __future__ import annotations

import sys

from repro.crypto import certs, ecdsa

ADDRESS = "stl/trade-logistics/TradeLensCC/GetBillOfLading"
REQUESTS = 4


def _count_verifies(monkeypatch) -> list[int]:
    """Count ``ecdsa.verify`` calls under every name a module imported it by."""
    calls = [0]
    original = ecdsa.verify

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "repro":
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counted)
    return calls


def test_repeated_query_verifies_only_its_attestations(shipped_scenario, monkeypatch):
    scenario, po_ref = shipped_scenario
    client = scenario.swt_seller_client.interop_client
    client.remote_query(ADDRESS, [po_ref])  # fills the memo
    calls = _count_verifies(monkeypatch)
    for _ in range(REQUESTS):
        calls[0] = 0
        misses = certs._issuer_signed.cache_info().misses
        result = client.remote_query(ADDRESS, [po_ref])
        assert certs._issuer_signed.cache_info().misses == misses
        assert len(result.proof.attestations) == 2  # seller-org AND carrier-org
        assert calls[0] == len(result.proof.attestations)
