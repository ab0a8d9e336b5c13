"""REP501 — capability grants fail closed.

The relay routes transact/subscribe/asset envelopes only to drivers that
declare the capability (``supports_transactions`` / ``supports_events``
/ ``supports_assets``). The abstract :class:`NetworkDriver` defaults are
the fail-closed position: they decline. A class that flips a flag to a
truthy value without implementing the verb set behind it turns
"fail closed" into "declared but broken" — the relay would route real
traffic at a driver that answers every request with the base class's
decline, or worse, crashes mid-protocol (an HTLC counter-lock that can
never be claimed).

The check is MRO-aware across the analyzed project: a grant is satisfied
by a verb defined in the class itself or any project-local ancestor —
except the declining defaults registered in
:data:`repro.analysis.invariants.DECLINING_DEFAULTS`, which never count.
A verb the abstract driver runs as a template
(:data:`repro.analysis.invariants.TEMPLATE_HOOKS`) is also implemented by
defining every hook the template calls.
Grants are detected both as class attributes (``supports_x = True``) and
as instance flips anywhere in a method body (``self.supports_x = <expr>``
with any possibly-truthy expression — conditional grants like
``supports_events = reader is not None`` still require the verbs).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    register,
)
from repro.analysis.invariants import CAPABILITY_VERBS, DECLINING_DEFAULTS, TEMPLATE_HOOKS


@dataclass
class _ClassInfo:
    name: str
    path: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: set[str] = field(default_factory=set)
    #: capability flag -> line of the granting assignment
    grants: dict[str, int] = field(default_factory=dict)


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _collect_classes(project: Project) -> dict[str, _ClassInfo]:
    classes: dict[str, _ClassInfo] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _ClassInfo(name=node.name, path=module.path, line=node.lineno)
            info.bases = [b for b in (_base_name(base) for base in node.bases) if b]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods.add(item.name)
                    for sub in ast.walk(item):
                        if isinstance(sub, ast.Assign):
                            for target in sub.targets:
                                if (
                                    isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"
                                    and target.attr in CAPABILITY_VERBS
                                    and not _is_false(sub.value)
                                ):
                                    info.grants.setdefault(target.attr, sub.lineno)
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in CAPABILITY_VERBS
                            and not _is_false(item.value)
                        ):
                            info.grants.setdefault(target.id, item.lineno)
            # Last definition of a name wins, matching Python semantics.
            classes[info.name] = info
    return classes


def _is_false(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def _implements(
    classes: dict[str, _ClassInfo], class_name: str, verb: str
) -> bool:
    """Does ``class_name``'s MRO implement ``verb``, or all its template hooks?"""
    hooks = TEMPLATE_HOOKS.get(verb, ())
    if hooks and all(_defines(classes, class_name, hook) for hook in hooks):
        return True
    return _defines(classes, class_name, verb)


def _defines(classes: dict[str, _ClassInfo], class_name: str, verb: str) -> bool:
    """Does ``class_name``'s project-local MRO define ``verb`` for real?"""
    seen: set[str] = set()
    stack = [class_name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        info = classes.get(current)
        if info is None:
            continue  # base outside the project (ABC, object, mixins)
        declining = DECLINING_DEFAULTS.get(current, frozenset())
        if verb in info.methods and verb not in declining:
            return True
        stack.extend(info.bases)
    return False


@register
class CapabilityFailClosedChecker(Checker):
    rule_ids = ("REP501",)
    invariant = (
        "a class granting supports_transactions/events/assets implements "
        "the full matching verb set (MRO-aware, declining defaults excluded)"
    )

    def run(self, project: Project) -> list[Finding]:
        classes = _collect_classes(project)
        findings: list[Finding] = []
        for info in classes.values():
            for flag, line in sorted(info.grants.items(), key=lambda kv: kv[1]):
                missing = [
                    verb
                    for verb in CAPABILITY_VERBS[flag]
                    if not _implements(classes, info.name, verb)
                ]
                if missing:
                    findings.append(
                        Finding(
                            rule="REP501",
                            path=info.path,
                            line=line,
                            col=0,
                            symbol=info.name,
                            message=(
                                f"{info.name} grants {flag} but does not "
                                f"implement: {', '.join(missing)} — the "
                                f"capability gate must fail closed, not "
                                f"route traffic at missing verbs"
                            ),
                        )
                    )
        return findings
