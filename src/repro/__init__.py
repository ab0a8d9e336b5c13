"""repro: trusted data transfer between enterprise blockchain networks.

A from-scratch Python reproduction of *"Enabling Enterprise Blockchain
Interoperability with Trusted Data Transfer"* (Abebe et al., Middleware
2019): per-network relay services with pluggable drivers and discovery, a
network-neutral wire protocol, and consensus-governed system contracts for
data exposure control and proof-based data acceptance — plus every
substrate the paper depends on (a Fabric-like execute-order-validate
platform, Corda-like and Quorum-like platforms, and a pure-Python crypto
stack).

Quickstart::

    from repro.apps import build_trade_scenario, run_full_use_case

    scenario = build_trade_scenario()
    result = run_full_use_case(scenario)
    assert result.final_lc["status"] == "PAID"

Package map:

- :mod:`repro.crypto` -- ECDSA/P-256, ECIES, certificates, Merkle trees
- :mod:`repro.wire` / :mod:`repro.proto` -- the network-neutral protocol
- :mod:`repro.policy` -- the threshold-policy algebra endorsement and
  verification policies share
- :mod:`repro.fabric` -- Hyperledger Fabric-like substrate
- :mod:`repro.corda`, :mod:`repro.quorum` -- alternative platforms
- :mod:`repro.interop` -- relays, drivers, system contracts, proofs (the
  paper's contribution)
- :mod:`repro.api` -- the unified application-facing gateway: fluent
  queries, batched pipelined execution, relay middleware chain
- :mod:`repro.apps` -- the STL/SWT trade use case
"""

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = ["ReproError", "__version__"]
