"""Steady-state work of one cross-network query.

Each identity is verified once: every request re-validates the same
long-lived certificates (the client's at the source's access gate, each
attesting peer's at the client), and ``repro.crypto.certs`` memoises the
one expensive step, the issuer's signature check. After the first
request, then, a query costs no chain verify at all: ``ecdsa.verify``
runs once per attestation and nowhere else.

One key agreement per peer reply: a peer seals its result box and its
metadata box under one ephemeral key, and the client derives that key
once. A query's elliptic-curve work is then 3 signatures, 2 ephemeral
keys, 2 peer-side ECDH and 2 client-side ECDH: 9 scalar multiplications.

A change that puts a chain verify or a key agreement back on the
per-request path fails here.
"""

from __future__ import annotations

import sys

from repro.crypto import certs, ec, ecdsa

ADDRESS = "stl/trade-logistics/TradeLensCC/GetBillOfLading"
REQUESTS = 4


def _count_calls(monkeypatch, original) -> list[tuple]:
    """Record the arguments of every call to ``original`` under every name
    a module imported it by."""
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "repro":
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counted)
    return calls


def _count_verifies(monkeypatch) -> list[tuple]:
    return _count_calls(monkeypatch, ecdsa.verify)


def test_repeated_query_verifies_only_its_attestations(shipped_scenario, monkeypatch):
    scenario, po_ref = shipped_scenario
    client = scenario.swt_seller_client.interop_client
    client.remote_query(ADDRESS, [po_ref])  # fills the memo
    calls = _count_verifies(monkeypatch)
    for _ in range(REQUESTS):
        calls.clear()
        misses = certs._issuer_signed.cache_info().misses
        result = client.remote_query(ADDRESS, [po_ref])
        assert certs._issuer_signed.cache_info().misses == misses
        assert len(result.proof.attestations) == 2  # seller-org AND carrier-org
        assert len(calls) == len(result.proof.attestations)


def test_repeated_query_agrees_one_key_per_peer_reply(shipped_scenario, monkeypatch):
    scenario, po_ref = shipped_scenario
    client = scenario.swt_seller_client.interop_client
    client_scalar = client.identity.keypair.private.d
    client.remote_query(ADDRESS, [po_ref])  # fills the certificate memo
    calls = _count_calls(monkeypatch, ec.scalar_mult)
    for _ in range(REQUESTS):
        calls.clear()
        result = client.remote_query(ADDRESS, [po_ref])
        peers = len(result.proof.attestations)
        assert peers == 2
        fixed_base = [args for args in calls if args[1:] in ((), (ec.GENERATOR,))]
        client_ecdh = [args for args in calls if args[0] == client_scalar]
        # 3 signatures + 1 ephemeral key per peer, all k·G
        assert len(fixed_base) == 3 + peers
        # one ECDH per peer reply at the peer and one at the client
        assert len(client_ecdh) == peers
        assert len(calls) == 9
