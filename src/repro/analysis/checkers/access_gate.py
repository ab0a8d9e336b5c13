"""REP601 — one access gate.

Who may do what on a source network is decided in exactly one function,
:func:`repro.interop.access.authorise`: it binds the requestor's
certificate to the org and requestor the request claims, validates the
chain against the recorded root, and matches the exposure rules. Four
copies of that decision once drifted apart until a Fabric subscription
was granted to anyone who *named* a whitelisted org. So, in the layers
listed in :data:`repro.analysis.invariants.ACCESS_GATE_LAYERS`, outside
the gate module itself, each of these is a finding:

- a comparison with a ``<x>.subject.organization`` or
  ``<x>.subject.common_name`` operand — binding a certificate to a claim;
- a call to ``validate_chain`` — authenticating a certificate — except in
  the modules of :data:`repro.analysis.invariants.CHAIN_VALIDATION_EXEMPT`
  (proof validation checks *peers'* attestations, not requestors).
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    dotted_name,
    enclosing_function,
    last_segment,
    register,
)
from repro.analysis.invariants import (
    ACCESS_GATE_LAYERS,
    ACCESS_GATE_MODULE,
    CHAIN_VALIDATION_EXEMPT,
)

_SUBJECT_FIELDS = frozenset({"organization", "common_name"})


def _subject_field(node: ast.expr) -> str | None:
    """``organization`` / ``common_name`` for ``<x>.subject.<field>``."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in _SUBJECT_FIELDS
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "subject"
    ):
        return node.attr
    return None


@register
class AccessGateChecker(Checker):
    rule_ids = ("REP601",)
    invariant = (
        "no code outside interop/access.py compares a certificate's org or "
        "common name to a claim or validates a requestor's chain"
    )

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if module.endswith(ACCESS_GATE_MODULE):
                continue
            if not any(layer in module.path for layer in ACCESS_GATE_LAYERS):
                continue
            chain_exempt = any(module.endswith(path) for path in CHAIN_VALIDATION_EXEMPT)
            for node in ast.walk(module.tree):
                message: str | None = None
                if isinstance(node, ast.Compare):
                    fields = [
                        field
                        for field in map(_subject_field, [node.left, *node.comparators])
                        if field
                    ]
                    if fields:
                        message = (
                            f"compares a certificate's subject.{fields[0]} to a "
                            f"claim — bind certificates to claims only in "
                            f"repro.interop.access.authorise"
                        )
                elif isinstance(node, ast.Call) and not chain_exempt:
                    name = dotted_name(node.func)
                    if name is not None and last_segment(name) == "validate_chain":
                        message = (
                            "validates a certificate chain outside the access "
                            "gate — authenticate requestors only in "
                            "repro.interop.access.authorise"
                        )
                if message is not None:
                    findings.append(
                        Finding(
                            rule="REP601",
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            symbol=enclosing_function(module, node.lineno),
                            message=message,
                        )
                    )
        return findings
