"""REP604 — one finalizer.

How a client checks a reply — the status, the nonce, the opened boxes
and the attestations' binding to the request and to the opened bytes —
is decided in one method,
:meth:`repro.interop.client.InteropClient.finalize_response`, for
queries and transactions alike. A second finalizer once drifted from the
first until it parsed an outcome the attestations did not cover. So,
outside :data:`repro.analysis.invariants.FINALIZER_MODULE` and the method
named by :data:`repro.analysis.invariants.FINALIZER`, a call to a name in
:data:`repro.analysis.invariants.FINALIZER_CALLS` — or to an alias it was
imported under — is a finding.
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
from repro.analysis.invariants import FINALIZER, FINALIZER_CALLS, FINALIZER_MODULE


@register
class FinalizerChecker(Checker):
    rule_ids = ("REP604",)
    invariant = (
        "only repro/interop/proofs.py and InteropClient.finalize_response "
        "call ReplyOpener and check_attested_query"
    )

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        finalizer_module, finalizer = FINALIZER
        for module in project.modules:
            if module.endswith(FINALIZER_MODULE):
                continue
            names = {
                alias.asname or alias.name: alias.name
                for node in ast.walk(module.tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name in FINALIZER_CALLS
            }
            names.update((name, name) for name in FINALIZER_CALLS)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                called = dotted_name(node.func)
                target = names.get(last_segment(called)) if called else None
                if target is None:
                    continue
                symbol = enclosing_function(module, node.lineno)
                if module.endswith(finalizer_module) and symbol == finalizer:
                    continue
                findings.append(
                    Finding(
                        rule="REP604",
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=symbol,
                        message=(
                            f"calls {target} outside the one finalizer — check "
                            f"replies of either verb only in "
                            f"InteropClient.finalize_response"
                        ),
                    )
                )
        return findings
