"""The access gate: one decision for every verb on every platform.

The paper's Exposure Control contract authenticates the requestor "using
the recorded ... configuration (managed by the CMDAC)" and then matches a
rule ``<network, organization, chaincode, function>`` (§3.2, §4.3).
:func:`authorise` is that decision, written once. Its callers differ only
in where the recorded roots and the rules come from:

- the ECC ``CheckAccess`` chaincode, for every Fabric verb: roots from the
  CMDAC record, rules from the ECC's world state
  (:mod:`repro.interop.contracts.ecc`);
- :meth:`~repro.interop.contracts.ports.InteropPort.check_access`, for
  Quorum, Corda and the public chain: the port's recorded configurations
  and rule set;
- an asset command from a member of the source network itself: that
  network's own org roots and no rule lookup, since membership is the
  grant (:class:`repro.assets.ports.AssetLedgerPort`).

Every refusal is an :class:`~repro.errors.AccessDeniedError` with one text
per cause, so a caller never has to tell a governance refusal from a
transport failure by reading text.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.crypto.certs import Certificate, validate_chain
from repro.errors import AccessDeniedError, CertificateError, ReproError
from repro.proto.messages import AuthInfo


def authorise(
    auth: AuthInfo | None,
    roots: Mapping[str, Certificate] | None,
    has_rule: Callable[[tuple[str, str, str, str]], bool] | None,
    contract: str,
    obj: str,
) -> None:
    """Admit the requestor ``auth`` to ``obj`` of ``contract``, or refuse.

    Four checks, always in this order:

    1. the request carries a certificate;
    2. the certificate's org and common name are the claimed
       ``requesting_org`` and ``requestor``;
    3. ``roots`` (org -> recorded root; ``None`` when the requesting network
       has no recorded configuration) holds a root for that org, and the
       certificate chains to it;
    4. ``has_rule`` holds for one of the rule tuples
       ``<net, org, contract, obj>``, ``<net, org, contract, *>``,
       ``<net, *, contract, obj>`` or ``<net, *, contract, *>``, where
       ``*`` stands for ``event:*`` when ``obj`` is an ``event:`` object.
       ``has_rule=None`` skips this step.

    Raises :class:`AccessDeniedError`, and nothing else, on the first
    check that fails.
    """
    if auth is None or not auth.certificate:
        raise AccessDeniedError("interop request carries no creator certificate")
    try:
        certificate = Certificate.from_bytes(auth.certificate)
    except CertificateError as exc:
        raise AccessDeniedError(f"creator certificate is malformed: {exc}") from exc
    network, org = auth.requesting_network, auth.requesting_org
    if certificate.subject.organization != org:
        raise AccessDeniedError(
            f"creator certificate belongs to org "
            f"{certificate.subject.organization!r}, but the request claims org {org!r}"
        )
    if certificate.subject.common_name != auth.requestor:
        raise AccessDeniedError(
            f"creator certificate has common name "
            f"{certificate.subject.common_name!r}, but the request claims "
            f"requestor {auth.requestor!r}"
        )
    if roots is None:
        raise AccessDeniedError(
            f"no configuration recorded for requesting network {network!r}"
        )
    root = roots.get(org)
    if root is None:
        raise AccessDeniedError(
            f"org {org!r} is not part of the recorded configuration of "
            f"network {network!r}"
        )
    try:
        validate_chain(certificate, [root])
    except ReproError as exc:
        raise AccessDeniedError(
            f"creator certificate does not chain to the recorded root of org "
            f"{org!r}: {exc}"
        ) from exc
    if has_rule is None:
        return
    wildcard = "event:*" if obj.startswith("event:") else "*"
    for rule in (
        (network, org, contract, obj),
        (network, org, contract, wildcard),
        (network, "*", contract, obj),
        (network, "*", contract, wildcard),
    ):
        if has_rule(rule):
            return
    raise AccessDeniedError(
        f"exposure control denied <{network}, {org}, {contract}, {obj}>: "
        f"no matching access rule"
    )
