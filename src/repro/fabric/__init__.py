"""Hyperledger Fabric-like permissioned blockchain substrate.

A faithful in-process simulation of the Fabric transaction model the paper
builds on (§4.1): an *execute-order-validate* pipeline where endorsing
peers simulate chaincode and sign read/write sets, an ordering service
cuts blocks, and every peer validates endorsement policies and MVCC
conflicts before committing. Organizations own peers and run Membership
Service Providers (MSPs) that issue ECDSA certificates.

Public surface:

- :class:`FabricNetwork` / :class:`NetworkBuilder` — assemble a network
- :class:`Chaincode` / :class:`ChaincodeStub` — smart-contract runtime
- :class:`Gateway` — the client SDK (submit / evaluate transactions)
- :func:`parse_endorsement_policy` — policy expressions like
  ``AND('SellerOrg.peer', 'CarrierOrg.peer')``, the ``Org.role``
  vocabulary of the shared algebra in :mod:`repro.policy`
"""

from repro.fabric.identity import Identity, MembershipServiceProvider, Organization
from repro.fabric.policy import EndorsementPolicy, parse_endorsement_policy
from repro.fabric.state import KeyValue, ReadWriteSet, VersionedKV, Version
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.fabric.ledger import Block, Ledger, Transaction, TxValidationCode
from repro.fabric.peer import Peer, ProposalResponse
from repro.fabric.orderer import OrderingService, RaftOrderer, SoloOrderer
from repro.fabric.gateway import Gateway
from repro.fabric.network import FabricNetwork, NetworkBuilder
from repro.fabric.events import BlockEvent, ChaincodeEvent, EventHub

__all__ = [
    "Identity",
    "MembershipServiceProvider",
    "Organization",
    "EndorsementPolicy",
    "parse_endorsement_policy",
    "VersionedKV",
    "Version",
    "KeyValue",
    "ReadWriteSet",
    "Chaincode",
    "ChaincodeStub",
    "Ledger",
    "Block",
    "Transaction",
    "TxValidationCode",
    "Peer",
    "ProposalResponse",
    "OrderingService",
    "SoloOrderer",
    "RaftOrderer",
    "Gateway",
    "FabricNetwork",
    "NetworkBuilder",
    "EventHub",
    "BlockEvent",
    "ChaincodeEvent",
]
