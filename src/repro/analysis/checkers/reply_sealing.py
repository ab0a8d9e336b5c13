"""REP602 — one module seals replies.

How a peer's reply is sealed to the requesting client, and how the
client opens it, is decided in :mod:`repro.interop.proofs`: it scopes one
key agreement to one peer's reply (:func:`~repro.interop.proofs.peer_reply`)
and one key memo to one finalize call
(:class:`~repro.interop.proofs.ReplyOpener`). A box sealed or opened
anywhere else would escape both scopes. So, outside the modules of
:data:`repro.analysis.invariants.SEALING_MODULES`, a call to any name in
:data:`repro.analysis.invariants.SEALING_CALLS` — or to an alias it was
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
from repro.analysis.invariants import SEALING_CALLS, SEALING_MODULES


@register
class ReplySealingChecker(Checker):
    rule_ids = ("REP602",)
    invariant = (
        "no code outside repro.crypto and repro/interop/proofs.py calls "
        "ecies_encrypt, ecies_decrypt or Encapsulation"
    )

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if any(allowed in module.path for allowed in SEALING_MODULES):
                continue
            names = {
                alias.asname or alias.name: alias.name
                for node in ast.walk(module.tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name in SEALING_CALLS
            }
            names.update((name, name) for name in SEALING_CALLS)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                called = dotted_name(node.func)
                target = names.get(last_segment(called)) if called else None
                if target is None:
                    continue
                findings.append(
                    Finding(
                        rule="REP602",
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=enclosing_function(module, node.lineno),
                        message=(
                            f"calls {target} outside repro.interop.proofs — "
                            f"seal and open replies through peer_reply / "
                            f"seal_result and ReplyOpener"
                        ),
                    )
                )
        return findings
