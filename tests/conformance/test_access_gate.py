"""Characterisation of the source side's access gate.

One cell per driver family, gated verb and cause. The verbs are query,
transact, subscribe, asset lock and asset status, each asked by a member
of the destination network, plus an asset lock asked by a member of the
source network itself (``local-lock``). Each cell drives the source
relay's driver directly with a hand-built requestor block and records
what comes back: the reply status or the exception type, and the text
that names the cause.

The foreign causes, in the order a request presents them:

- ``no-cert``: the block carries no certificate;
- ``org-mismatch``: it claims an org its certificate does not name;
- ``cn-mismatch``: it claims a requestor its certificate does not name;
- ``self-made-ca``: its certificate comes from a throwaway CA that
  carries the recorded org's name;
- ``org-not-recorded``: its org is absent from the recorded config;
- ``network-not-recorded``: it names a network with no recorded config;
- ``no-rule``: the network is recorded, but no rule names it;
- ``rule-exact``, ``rule-any-object``, ``rule-any-org`` and
  ``rule-any-org-any-object``: the only rule that matches has the form
  ``<net, org, c, obj>``, ``<net, org, c, *>``, ``<net, *, c, obj>`` or
  ``<net, *, c, *>`` (``*`` here is ``event:*`` for an event object).

The local causes are the first five, plus ``member`` for a genuine member
of the source network.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.fabric.identity import Organization
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    PROTOCOL_VERSION,
    STATUS_ACCESS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    AssetAckMsg,
    AssetCommandMsg,
    AuthInfo,
    EventSubscribeRequest,
    NetworkAddressMsg,
    NetworkConfigMsg,
    NetworkQuery,
    QueryResponse,
    VerificationPolicyMsg,
)

PLATFORMS = ("fabric", "quorum", "corda", "pubchain")
VERBS = ("query", "transact", "subscribe", "lock", "status")
FOREIGN_CAUSES = (
    "no-cert",
    "org-mismatch",
    "cn-mismatch",
    "self-made-ca",
    "org-not-recorded",
    "network-not-recorded",
    "no-rule",
    "rule-exact",
    "rule-any-object",
    "rule-any-org",
    "rule-any-org-any-object",
)
LOCAL_CAUSES = (
    "no-cert",
    "org-mismatch",
    "cn-mismatch",
    "self-made-ca",
    "org-not-recorded",
    "member",
)
#: The requesting network each foreign cause claims.
NETWORKS = {
    "network-not-recorded": "ghost-net",
    "no-rule": "norule-net",
    "rule-any-object": "anyobj-net",
    "rule-any-org": "anyorg-net",
    "rule-any-org-any-object": "anyall-net",
}
STATUS_NAMES = {
    STATUS_OK: "STATUS_OK",
    STATUS_ERROR: "STATUS_ERROR",
    STATUS_ACCESS_DENIED: "STATUS_ACCESS_DENIED",
}
HASHLOCK = hashlib.sha256(b"gate-secret").digest()

# platform  verb  cause  | reply status or exception type | text
TABLE = """
fabric   query      no-cert                 | STATUS_ACCESS_DENIED       | AccessDeniedError: interop request carries no creator certificate
fabric   query      org-mismatch            | STATUS_ACCESS_DENIED       | AccessDeniedError: creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
fabric   query      cn-mismatch             | STATUS_ACCESS_DENIED       | AccessDeniedError: creator certificate has common name 'app', but the request claims requestor 'counter'
fabric   query      self-made-ca            | STATUS_ACCESS_DENIED       | AccessDeniedError: creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
fabric   query      org-not-recorded        | STATUS_ACCESS_DENIED       | AccessDeniedError: org 'stranger-org' is not part of the recorded configuration of network 'destnet'
fabric   query      network-not-recorded    | STATUS_ACCESS_DENIED       | AccessDeniedError: no configuration recorded for requesting network 'ghost-net'
fabric   query      no-rule                 | STATUS_ACCESS_DENIED       | AccessDeniedError: exposure control denied <norule-net, dest-org, confcc, Get>: no matching access rule
fabric   query      rule-exact              | STATUS_OK                  |
fabric   query      rule-any-object         | STATUS_OK                  |
fabric   query      rule-any-org            | STATUS_OK                  |
fabric   query      rule-any-org-any-object | STATUS_OK                  |
fabric   transact   no-cert                 | STATUS_ACCESS_DENIED       | interop request carries no creator certificate
fabric   transact   org-mismatch            | STATUS_ACCESS_DENIED       | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
fabric   transact   cn-mismatch             | STATUS_ACCESS_DENIED       | creator certificate has common name 'app', but the request claims requestor 'counter'
fabric   transact   self-made-ca            | STATUS_ACCESS_DENIED       | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
fabric   transact   org-not-recorded        | STATUS_ACCESS_DENIED       | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
fabric   transact   network-not-recorded    | STATUS_ACCESS_DENIED       | no configuration recorded for requesting network 'ghost-net'
fabric   transact   no-rule                 | STATUS_ACCESS_DENIED       | exposure control denied <norule-net, dest-org, confcc, Put>: no matching access rule
fabric   transact   rule-exact              | STATUS_OK                  |
fabric   transact   rule-any-object         | STATUS_OK                  |
fabric   transact   rule-any-org            | STATUS_OK                  |
fabric   transact   rule-any-org-any-object | STATUS_OK                  |
fabric   subscribe  no-cert                 | AccessDeniedError          | interop request carries no creator certificate
fabric   subscribe  org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
fabric   subscribe  cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
fabric   subscribe  self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
fabric   subscribe  org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
fabric   subscribe  network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
fabric   subscribe  no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, confcc, event:Stored>: no matching access rule
fabric   subscribe  rule-exact              | tap                        |
fabric   subscribe  rule-any-object         | tap                        |
fabric   subscribe  rule-any-org            | tap                        |
fabric   subscribe  rule-any-org-any-object | tap                        |
fabric   lock       no-cert                 | AccessDeniedError          | interop request carries no creator certificate
fabric   lock       org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
fabric   lock       cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
fabric   lock       self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
fabric   lock       org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
fabric   lock       network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
fabric   lock       no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, assetscc, LockAsset>: no matching access rule
fabric   lock       rule-exact              | STATUS_OK                  | locked
fabric   lock       rule-any-object         | STATUS_OK                  | locked
fabric   lock       rule-any-org            | STATUS_OK                  | locked
fabric   lock       rule-any-org-any-object | STATUS_OK                  | locked
fabric   status     no-cert                 | AccessDeniedError          | interop request carries no creator certificate
fabric   status     org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
fabric   status     cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
fabric   status     self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
fabric   status     org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
fabric   status     network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
fabric   status     no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, assetscc, GetLock>: no matching access rule
fabric   status     rule-exact              | STATUS_OK                  | available
fabric   status     rule-any-object         | STATUS_OK                  | available
fabric   status     rule-any-org            | STATUS_OK                  | available
fabric   status     rule-any-org-any-object | STATUS_OK                  | available
fabric   local-lock no-cert                 | AccessDeniedError          | interop request carries no creator certificate
fabric   local-lock org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'conf-org-a', but the request claims org 'other-org'
fabric   local-lock cn-mismatch             | AccessDeniedError          | creator certificate has common name 'admin', but the request claims requestor 'counter'
fabric   local-lock self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'conf-org-a': certificate for 'admin' carries an invalid signature from 'ca.conf-org-a'
fabric   local-lock org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'fabnetc'
fabric   local-lock member                  | STATUS_OK                  | locked
quorum   query      no-cert                 | STATUS_ACCESS_DENIED       | interop request carries no creator certificate
quorum   query      org-mismatch            | STATUS_ACCESS_DENIED       | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
quorum   query      cn-mismatch             | STATUS_ACCESS_DENIED       | creator certificate has common name 'app', but the request claims requestor 'counter'
quorum   query      self-made-ca            | STATUS_ACCESS_DENIED       | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
quorum   query      org-not-recorded        | STATUS_ACCESS_DENIED       | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
quorum   query      network-not-recorded    | STATUS_ACCESS_DENIED       | no configuration recorded for requesting network 'ghost-net'
quorum   query      no-rule                 | STATUS_ACCESS_DENIED       | exposure control denied <norule-net, dest-org, document-registry, GetDocument>: no matching access rule
quorum   query      rule-exact              | STATUS_OK                  |
quorum   query      rule-any-object         | STATUS_OK                  |
quorum   query      rule-any-org            | STATUS_OK                  |
quorum   query      rule-any-org-any-object | STATUS_OK                  |
quorum   transact   no-cert                 | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   org-mismatch            | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   cn-mismatch             | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   self-made-ca            | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   org-not-recorded        | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   network-not-recorded    | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   no-rule                 | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   rule-exact              | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   rule-any-object         | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   rule-any-org            | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   transact   rule-any-org-any-object | STATUS_ERROR               | driver for network 'quornetc' does not support cross-network transactions
quorum   subscribe  no-cert                 | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  org-mismatch            | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  cn-mismatch             | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  self-made-ca            | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  org-not-recorded        | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  network-not-recorded    | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  no-rule                 | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  rule-exact              | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  rule-any-object         | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  rule-any-org            | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   subscribe  rule-any-org-any-object | UnsupportedCapabilityError | driver for network 'quornetc' does not support event subscriptions
quorum   lock       no-cert                 | AccessDeniedError          | interop request carries no creator certificate
quorum   lock       org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
quorum   lock       cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
quorum   lock       self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
quorum   lock       org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
quorum   lock       network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
quorum   lock       no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, asset-vault, LockAsset>: no matching access rule
quorum   lock       rule-exact              | STATUS_OK                  | locked
quorum   lock       rule-any-object         | STATUS_OK                  | locked
quorum   lock       rule-any-org            | STATUS_OK                  | locked
quorum   lock       rule-any-org-any-object | STATUS_OK                  | locked
quorum   status     no-cert                 | AccessDeniedError          | interop request carries no creator certificate
quorum   status     org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
quorum   status     cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
quorum   status     self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
quorum   status     org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
quorum   status     network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
quorum   status     no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, asset-vault, GetLock>: no matching access rule
quorum   status     rule-exact              | STATUS_OK                  | available
quorum   status     rule-any-object         | STATUS_OK                  | available
quorum   status     rule-any-org            | STATUS_OK                  | available
quorum   status     rule-any-org-any-object | STATUS_OK                  | available
quorum   local-lock no-cert                 | AccessDeniedError          | interop request carries no creator certificate
quorum   local-lock org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'op-org-1', but the request claims org 'other-org'
quorum   local-lock cn-mismatch             | AccessDeniedError          | creator certificate has common name 'gate-local', but the request claims requestor 'counter'
quorum   local-lock self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'op-org-1': certificate for 'gate-local' carries an invalid signature from 'ca.op-org-1'
quorum   local-lock org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'quornetc'
quorum   local-lock member                  | STATUS_OK                  | locked
corda    query      no-cert                 | STATUS_ACCESS_DENIED       | interop request carries no creator certificate
corda    query      org-mismatch            | STATUS_ACCESS_DENIED       | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
corda    query      cn-mismatch             | STATUS_ACCESS_DENIED       | creator certificate has common name 'app', but the request claims requestor 'counter'
corda    query      self-made-ca            | STATUS_ACCESS_DENIED       | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
corda    query      org-not-recorded        | STATUS_ACCESS_DENIED       | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
corda    query      network-not-recorded    | STATUS_ACCESS_DENIED       | no configuration recorded for requesting network 'ghost-net'
corda    query      no-rule                 | STATUS_ACCESS_DENIED       | exposure control denied <norule-net, dest-org, vault, GetState>: no matching access rule
corda    query      rule-exact              | STATUS_OK                  |
corda    query      rule-any-object         | STATUS_OK                  |
corda    query      rule-any-org            | STATUS_OK                  |
corda    query      rule-any-org-any-object | STATUS_OK                  |
corda    transact   no-cert                 | STATUS_ACCESS_DENIED       | interop request carries no creator certificate
corda    transact   org-mismatch            | STATUS_ACCESS_DENIED       | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
corda    transact   cn-mismatch             | STATUS_ACCESS_DENIED       | creator certificate has common name 'app', but the request claims requestor 'counter'
corda    transact   self-made-ca            | STATUS_ACCESS_DENIED       | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
corda    transact   org-not-recorded        | STATUS_ACCESS_DENIED       | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
corda    transact   network-not-recorded    | STATUS_ACCESS_DENIED       | no configuration recorded for requesting network 'ghost-net'
corda    transact   no-rule                 | STATUS_ACCESS_DENIED       | exposure control denied <norule-net, dest-org, vault, RecordState>: no matching access rule
corda    transact   rule-exact              | STATUS_OK                  |
corda    transact   rule-any-object         | STATUS_OK                  |
corda    transact   rule-any-org            | STATUS_OK                  |
corda    transact   rule-any-org-any-object | STATUS_OK                  |
corda    subscribe  no-cert                 | AccessDeniedError          | interop request carries no creator certificate
corda    subscribe  org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
corda    subscribe  cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
corda    subscribe  self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
corda    subscribe  org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
corda    subscribe  network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
corda    subscribe  no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, vault, event:Record>: no matching access rule
corda    subscribe  rule-exact              | tap                        |
corda    subscribe  rule-any-object         | tap                        |
corda    subscribe  rule-any-org            | tap                        |
corda    subscribe  rule-any-org-any-object | tap                        |
corda    lock       no-cert                 | AccessDeniedError          | interop request carries no creator certificate
corda    lock       org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
corda    lock       cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
corda    lock       self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
corda    lock       org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
corda    lock       network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
corda    lock       no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, asset-vault, LockAsset>: no matching access rule
corda    lock       rule-exact              | STATUS_OK                  | locked
corda    lock       rule-any-object         | STATUS_OK                  | locked
corda    lock       rule-any-org            | STATUS_OK                  | locked
corda    lock       rule-any-org-any-object | STATUS_OK                  | locked
corda    status     no-cert                 | AccessDeniedError          | interop request carries no creator certificate
corda    status     org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
corda    status     cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
corda    status     self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
corda    status     org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
corda    status     network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
corda    status     no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, asset-vault, GetLock>: no matching access rule
corda    status     rule-exact              | STATUS_OK                  | available
corda    status     rule-any-object         | STATUS_OK                  | available
corda    status     rule-any-org            | STATUS_OK                  | available
corda    status     rule-any-org-any-object | STATUS_OK                  | available
corda    local-lock no-cert                 | AccessDeniedError          | interop request carries no creator certificate
corda    local-lock org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'nodeA', but the request claims org 'other-org'
corda    local-lock cn-mismatch             | AccessDeniedError          | creator certificate has common name 'nodeA', but the request claims requestor 'counter'
corda    local-lock self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'nodeA': certificate for 'nodeA' carries an invalid signature from 'ca.nodeA'
corda    local-lock org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'cordanetc'
corda    local-lock member                  | STATUS_OK                  | locked
pubchain query      no-cert                 | STATUS_ACCESS_DENIED       | interop request carries no creator certificate
pubchain query      org-mismatch            | STATUS_ACCESS_DENIED       | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
pubchain query      cn-mismatch             | STATUS_ACCESS_DENIED       | creator certificate has common name 'app', but the request claims requestor 'counter'
pubchain query      self-made-ca            | STATUS_ACCESS_DENIED       | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
pubchain query      org-not-recorded        | STATUS_ACCESS_DENIED       | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
pubchain query      network-not-recorded    | STATUS_ACCESS_DENIED       | no configuration recorded for requesting network 'ghost-net'
pubchain query      no-rule                 | STATUS_ACCESS_DENIED       | exposure control denied <norule-net, dest-org, document-registry, GetDocument>: no matching access rule
pubchain query      rule-exact              | STATUS_OK                  |
pubchain query      rule-any-object         | STATUS_OK                  |
pubchain query      rule-any-org            | STATUS_OK                  |
pubchain query      rule-any-org-any-object | STATUS_OK                  |
pubchain transact   no-cert                 | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   org-mismatch            | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   cn-mismatch             | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   self-made-ca            | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   org-not-recorded        | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   network-not-recorded    | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   no-rule                 | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   rule-exact              | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   rule-any-object         | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   rule-any-org            | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain transact   rule-any-org-any-object | STATUS_ERROR               | driver for network 'pubnetc' does not support cross-network transactions
pubchain subscribe  no-cert                 | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  org-mismatch            | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  cn-mismatch             | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  self-made-ca            | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  org-not-recorded        | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  network-not-recorded    | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  no-rule                 | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  rule-exact              | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  rule-any-object         | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  rule-any-org            | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain subscribe  rule-any-org-any-object | UnsupportedCapabilityError | driver for network 'pubnetc' does not support event subscriptions
pubchain lock       no-cert                 | AccessDeniedError          | interop request carries no creator certificate
pubchain lock       org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
pubchain lock       cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
pubchain lock       self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
pubchain lock       org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
pubchain lock       network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
pubchain lock       no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, asset-vault, LockAsset>: no matching access rule
pubchain lock       rule-exact              | STATUS_OK                  | locked
pubchain lock       rule-any-object         | STATUS_OK                  | locked
pubchain lock       rule-any-org            | STATUS_OK                  | locked
pubchain lock       rule-any-org-any-object | STATUS_OK                  | locked
pubchain status     no-cert                 | AccessDeniedError          | interop request carries no creator certificate
pubchain status     org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'dest-org', but the request claims org 'other-org'
pubchain status     cn-mismatch             | AccessDeniedError          | creator certificate has common name 'app', but the request claims requestor 'counter'
pubchain status     self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'dest-org': certificate for 'app' carries an invalid signature from 'ca.dest-org'
pubchain status     org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'destnet'
pubchain status     network-not-recorded    | AccessDeniedError          | no configuration recorded for requesting network 'ghost-net'
pubchain status     no-rule                 | AccessDeniedError          | exposure control denied <norule-net, dest-org, asset-vault, GetLock>: no matching access rule
pubchain status     rule-exact              | STATUS_OK                  | available
pubchain status     rule-any-object         | STATUS_OK                  | available
pubchain status     rule-any-org            | STATUS_OK                  | available
pubchain status     rule-any-org-any-object | STATUS_OK                  | available
pubchain local-lock no-cert                 | AccessDeniedError          | interop request carries no creator certificate
pubchain local-lock org-mismatch            | AccessDeniedError          | creator certificate belongs to org 'pub-org-1', but the request claims org 'other-org'
pubchain local-lock cn-mismatch             | AccessDeniedError          | creator certificate has common name 'gate-local', but the request claims requestor 'counter'
pubchain local-lock self-made-ca            | AccessDeniedError          | creator certificate does not chain to the recorded root of org 'pub-org-1': certificate for 'gate-local' carries an invalid signature from 'ca.pub-org-1'
pubchain local-lock org-not-recorded        | AccessDeniedError          | org 'stranger-org' is not part of the recorded configuration of network 'pubnetc'
pubchain local-lock member                  | STATUS_OK                  | locked
"""


def parse_table(text: str) -> dict[tuple[str, str, str], tuple[str, str]]:
    cells = {}
    for line in text.strip().splitlines():
        where, outcome, text = (part.strip() for part in line.split("|"))
        platform, verb, cause = where.split()
        cells[(platform, verb, cause)] = (outcome, text)
    return cells


CELLS = parse_table(TABLE)


def split_address(text: str) -> NetworkAddressMsg:
    network, ledger, contract, *function = text.split("/")
    return NetworkAddressMsg(
        network=network,
        ledger=ledger,
        contract=contract,
        function=function[0] if function else "",
    )


def governance(target):
    """``(recorded destnet config, record(config), grant(*rule))`` on the
    source network's own ECC/CMDAC or platform port."""
    driver = target.driver
    if target.platform != "fabric":
        port = driver._port
        return (
            port.get_network_config("destnet"),
            port.record_network_config,
            port.add_access_rule,
        )
    network = driver._network
    admin = network.org("conf-org-a").member("admin")
    raw = network.gateway.evaluate(admin, "cmdac", "GetNetworkConfig", ["destnet"])

    def record(config):
        network.gateway.submit(
            admin, "cmdac", "RecordNetworkConfig", [config.network_id, config.encode().hex()]
        )

    def grant(*rule):
        network.gateway.submit(admin, "ecc", "AddAccessRule", list(rule))

    return NetworkConfigMsg.decode(bytes.fromhex(raw.decode("ascii"))), record, grant


def local_member(target):
    substrate = target.driver._network if target.platform != "pubchain" else target.substrate
    if target.platform == "fabric":
        return substrate.org("conf-org-a").member("admin")
    if target.platform == "corda":
        return substrate.node("nodeA").identity
    org = "op-org-1" if target.platform == "quorum" else "pub-org-1"
    return substrate.enroll_client("gate-local", org)


def build_deployment(target) -> SimpleNamespace:
    """A conformance target plus one requesting network per rule form."""
    recorded, record, grant = governance(target)
    objects = {"query": split_address(target.query_address)}
    if target.transact_address:
        objects["transact"] = split_address(target.transact_address)
    if target.event_address:
        event = split_address(target.event_address)
        event.function = f"event:{target.event_name}"
        objects["subscribe"] = event
    asset = split_address(target.asset_contract_address)
    objects["lock"] = NetworkAddressMsg(contract=asset.contract, function="LockAsset")
    objects["status"] = NetworkAddressMsg(contract=asset.contract, function="GetLock")
    contracts = sorted({address.contract for address in objects.values()})
    for network in ("norule-net", "anyobj-net", "anyorg-net", "anyall-net"):
        record(
            NetworkConfigMsg(
                network_id=network,
                platform=recorded.platform,
                organizations=list(recorded.organizations),
            )
        )
    for contract in contracts:
        for function in ("*", "event:*"):
            grant("anyobj-net", "dest-org", contract, function)
            grant("anyall-net", "*", contract, function)
    for address in objects.values():
        grant("anyorg-net", "*", address.contract, address.function)

    app = target.client.identity
    local = local_member(target)
    return SimpleNamespace(
        target=target,
        objects=objects,
        app=app,
        self_made=Organization("dest-org", network="destnet").enroll("app"),
        stranger=Organization("stranger-org", network="destnet").enroll("app"),
        local=local,
        local_self_made=Organization(local.org, network=target.network_id).enroll(local.name),
        local_stranger=Organization("stranger-org", network=target.network_id).enroll(local.name),
        status_asset=target.issue_asset("GATE-STATUS", "app@destnet"),
        recorded=recorded,
        record=record,
        grant=grant,
    )


@pytest.fixture(scope="module")
def deployments():
    """``platform -> deployment``, filled by :func:`deployment_of`."""
    return {}


def deployment_of(request, platform: str) -> SimpleNamespace:
    """The module's deployment for ``platform``, built on first use."""
    built = request.getfixturevalue("deployments")
    if platform not in built:
        built[platform] = build_deployment(request.getfixturevalue(f"{platform}_target"))
    return built[platform]


def requestor(deployment, verb: str, cause: str) -> AuthInfo:
    """The requestor block a cell presents."""
    if verb == "local-lock":
        member, network = deployment.local, deployment.target.network_id
        self_made, stranger = deployment.local_self_made, deployment.local_stranger
    else:
        member, network = deployment.app, NETWORKS.get(cause, "destnet")
        self_made, stranger = deployment.self_made, deployment.stranger
    org, name, certificate = member.org, member.name, member.certificate
    if cause == "no-cert":
        certificate = None
    elif cause == "org-mismatch":
        org = "other-org"
    elif cause == "cn-mismatch":
        name = "counter"
    elif cause == "self-made-ca":
        certificate = self_made.certificate
    elif cause == "org-not-recorded":
        org, certificate = stranger.org, stranger.certificate
    return AuthInfo(
        requesting_network=network,
        requesting_org=org,
        requestor=name,
        certificate=certificate.to_bytes() if certificate else b"",
        public_key=member.keypair.public.to_bytes(),
    )


def observe(call) -> tuple[str, str]:
    """``(reply status or exception type, text)`` of one gated call."""
    try:
        result = call()
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, (QueryResponse, AssetAckMsg)):
        return STATUS_NAMES[result.status], result.error or getattr(result, "state", "")
    return "tap", ""


def gated_call(deployment, verb: str, auth: AuthInfo, tag: str) -> tuple[str, str]:
    """Ask the source driver for ``verb`` under ``auth`` and observe the answer."""
    target = deployment.target
    driver = target.driver
    address = deployment.objects.get("lock" if verb == "local-lock" else verb)
    if address is None:  # a verb the platform does not offer: ask anyway
        address = deployment.objects["query"]
    if verb in ("query", "transact"):
        request = NetworkQuery(
            version=PROTOCOL_VERSION,
            address=address,
            args=(
                target.transact_args(tag)
                if verb == "transact" and target.transact_args
                else target.query_args
            ),
            nonce=tag,
            auth=auth,
            policy=VerificationPolicyMsg(expression=target.policy),
            invocation=INVOCATION_TRANSACTION if verb == "transact" else "",
        )
        if verb == "query":
            return observe(lambda: driver.execute_query(request))
        return observe(lambda: driver.execute_transaction(request))
    if verb == "subscribe":
        subscribe = EventSubscribeRequest(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network=target.network_id,
                ledger=address.ledger,
                contract=address.contract,
            ),
            event_name=address.function.removeprefix("event:"),
            auth=auth,
            subscription_id=tag,
        )
        taps: list[object] = []
        outcome = observe(
            lambda: taps.append(driver.open_event_tap(subscribe, lambda _event: None))
        )
        for tap in taps:
            driver.close_event_tap(tap)
        return outcome
    command = AssetCommandMsg(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(
            network=target.network_id,
            ledger=split_address(target.asset_contract_address).ledger,
            contract=address.contract,
        ),
        asset_id=deployment.status_asset,
        recipient="counter@destnet",
        hashlock=HASHLOCK,
        timeout=target.clock.now() + 600.0,
        auth=auth,
        nonce=tag,
    )
    if verb == "status":
        return observe(lambda: driver.asset_status(command))
    command.asset_id = target.issue_asset(tag, f"{auth.requestor}@{auth.requesting_network}")
    return observe(lambda: driver.lock_asset(command))


def run_cell(deployment, verb: str, cause: str) -> tuple[str, str]:
    auth = requestor(deployment, verb, cause)
    return gated_call(deployment, verb, auth, f"GATE-{verb}-{cause}")


def test_table_has_every_cell():
    foreign = {(p, v, c) for p in PLATFORMS for v in VERBS for c in FOREIGN_CAUSES}
    local = {(p, "local-lock", c) for p in PLATFORMS for c in LOCAL_CAUSES}
    assert set(CELLS) == foreign | local


@pytest.mark.parametrize(
    "platform, verb, cause", [pytest.param(*cell, id="-".join(cell)) for cell in CELLS]
)
def test_gate_cell(request, platform, verb, cause):
    assert run_cell(deployment_of(request, platform), verb, cause) == CELLS[(platform, verb, cause)]


# -- gaps the table once showed, pinned as the behaviour wanted --------------------


@pytest.mark.parametrize(
    "platform, offers_events",
    [
        ("fabric", True),
        ("quorum", False),
        ("corda", True),
        ("pubchain", False),
    ],
)
@pytest.mark.parametrize("cause", ["no-cert", "self-made-ca"])
def test_claimed_org_subscription_is_refused(request, platform, offers_events, cause):
    """A subscriber that only *names* a whitelisted org gets no events:
    refused where the platform offers events, failed closed elsewhere."""
    outcome, _text = run_cell(deployment_of(request, platform), "subscribe", cause)
    if offers_events:
        assert outcome not in ("tap", "UnsupportedCapabilityError")
    else:
        assert outcome == "UnsupportedCapabilityError"


@pytest.mark.parametrize(
    "platform",
    ["fabric", "corda"],
)
def test_object_wildcard_does_not_grant_events(request, platform):
    """``<net, org, c, *>`` exposes functions; events need ``event:*``."""
    deployment = deployment_of(request, platform)
    network = "funcs-only-net"
    deployment.record(
        NetworkConfigMsg(
            network_id=network,
            platform=deployment.recorded.platform,
            organizations=list(deployment.recorded.organizations),
        )
    )
    contract = deployment.objects["subscribe"].contract
    deployment.grant(network, "dest-org", contract, "*")
    auth = requestor(deployment, "subscribe", "rule-exact")
    auth.requesting_network = network
    outcome, _text = gated_call(deployment, "subscribe", auth, "GATE-funcs-only")
    assert outcome == "AccessDeniedError"


def test_quorum_query_binds_requestor_to_certificate(request):
    """The requestor a Quorum view sees as its sender is the certificate's."""
    outcome, text = run_cell(deployment_of(request, "quorum"), "query", "cn-mismatch")
    assert outcome == "STATUS_ACCESS_DENIED"
    assert "common name" in text
