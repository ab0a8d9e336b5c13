"""REP603 — one driver template.

How a source network answers a query or a transaction is decided in
:class:`repro.interop.drivers.base.NetworkDriver`: it decodes the
address, selects the attesters the verification policy asks for, gates
the request, collects one attested reply per attester, and answers. A
platform supplies hooks for the parts that really differ. Four copies of
that procedure once drifted apart until one family answered a request
another raised out of the relay. So each of these is a finding:

- outside :data:`repro.analysis.invariants.DRIVER_TEMPLATE_MODULE` and
  the module defining it, a call to a name in
  :data:`repro.analysis.invariants.DRIVER_TEMPLATE_CALLS` — or to an
  alias it was imported under;
- a subclass of the driver class (project-local, MRO-aware) that defines
  a method in :data:`repro.analysis.invariants.DRIVER_TEMPLATE_METHODS`.
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
    DRIVER_TEMPLATE_CALLS,
    DRIVER_TEMPLATE_CLASS,
    DRIVER_TEMPLATE_METHODS,
    DRIVER_TEMPLATE_MODULE,
)


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _drivers(project: Project) -> set[str]:
    """Names of the project's classes that descend from the driver class."""
    bases: dict[str, list[str]] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b for b in map(_base_name, node.bases) if b]
    drivers: set[str] = set()
    grew = True
    while grew:
        grew = False
        for name, parents in bases.items():
            if name not in drivers and any(
                parent == DRIVER_TEMPLATE_CLASS or parent in drivers for parent in parents
            ):
                drivers.add(name)
                grew = True
    return drivers


@register
class DriverTemplateChecker(Checker):
    rule_ids = ("REP603",)
    invariant = (
        "only repro/interop/drivers/base.py calls attesters_for and "
        "attest_reply, and no NetworkDriver subclass overrides "
        "execute_query or execute_transaction"
    )

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        drivers = _drivers(project)
        for module in project.modules:
            findings.extend(self._calls(module))
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef) or node.name not in drivers:
                    continue
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name in DRIVER_TEMPLATE_METHODS
                    ):
                        findings.append(
                            Finding(
                                rule="REP603",
                                path=module.path,
                                line=item.lineno,
                                col=item.col_offset,
                                symbol=f"{node.name}.{item.name}",
                                message=(
                                    f"{node.name} overrides the driver template's "
                                    f"{item.name} — supply the platform's hooks instead"
                                ),
                            )
                        )
        return findings

    @staticmethod
    def _calls(module) -> list[Finding]:
        if module.endswith(DRIVER_TEMPLATE_MODULE):
            return []
        calls = {
            name for name, home in DRIVER_TEMPLATE_CALLS.items() if not module.endswith(home)
        }
        names = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in calls
        }
        names.update((name, name) for name in calls)
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = dotted_name(node.func)
            target = names.get(last_segment(called)) if called else None
            if target is None:
                continue
            findings.append(
                Finding(
                    rule="REP603",
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=enclosing_function(module, node.lineno),
                    message=(
                        f"calls {target} outside the driver template — select "
                        f"attesters and attest replies only in "
                        f"repro.interop.drivers.base.NetworkDriver"
                    ),
                )
            )
        return findings
