"""REP301 — the wire-kind registry is closed, classified, and routed.

Every ``MSG_KIND_*`` constant in :mod:`repro.proto.messages` is a wire
contract: caching layers route on it (side-effecting kinds must never be
replayed from cache), the idempotency record keys exactly-once execution
on it, and the relay dispatcher must have a branch for it. A kind that
is added but not classified silently becomes "cacheable and replayable";
one that is classified but not dispatched becomes a dead verb that
answers "unexpected message kind".

Enforced, all against the AST (the modules are never imported):

- every ``MSG_KIND_*`` has a unique integer value;
- every ``MSG_KIND_*`` (and each classification set) is exported from
  ``repro/proto/__init__.py``'s ``__all__``;
- the classification sets ``SIDE_EFFECTING_KINDS`` / ``READ_ONLY_KINDS``
  / ``REPLY_KINDS`` exist and **partition** the kinds: each kind is in
  exactly one;
- every *request* kind (side-effecting or read-only — replies are never
  dispatched) is a key of the relay's dispatch table,
  ``RelayService._SERVE_TABLE``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleSource,
    Project,
    dotted_name,
    last_segment,
    register,
)
from repro.analysis.invariants import (
    DISPATCH_TABLE,
    KIND_CLASS_SETS,
    MESSAGES_MODULE,
    PROTO_EXPORTS_MODULE,
    RELAY_MODULE,
)

KIND_PREFIX = "MSG_KIND_"


def _collect_kinds(module: ModuleSource) -> dict[str, tuple[int, object]]:
    """``{constant_name: (lineno, value)}`` for top-level MSG_KIND_*."""
    kinds: dict[str, tuple[int, object]] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.startswith(KIND_PREFIX):
                value = (
                    node.value.value if isinstance(node.value, ast.Constant) else None
                )
                kinds[target.id] = (node.lineno, value)
    return kinds


def _collect_name_sets(module: ModuleSource) -> dict[str, tuple[int, set[str]]]:
    """Top-level ``X = frozenset({NAME, ...})`` assignments, by name."""
    sets: dict[str, tuple[int, set[str]]] = {}
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set")
            and len(value.args) == 1
        ):
            continue
        literal = value.args[0]
        if not isinstance(literal, (ast.Set, ast.List, ast.Tuple)):
            continue
        members = set()
        for element in literal.elts:
            name = dotted_name(element)
            if name is not None:
                members.add(last_segment(name))
        sets[target.id] = (node.lineno, members)
    return sets


def _collect_exports(module: ModuleSource) -> set[str] | None:
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    return {
                        el.value
                        for el in node.value.elts
                        if isinstance(el, ast.Constant) and isinstance(el.value, str)
                    }
    return None


def _dispatch_table_keys(tree: ast.AST) -> set[str] | None:
    """Kind constants keying the relay's dispatch table (``None`` when
    the class has no such dict literal)."""
    class_name, table_name = DISPATCH_TABLE
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        for item in node.body:
            if isinstance(item, ast.Assign) and len(item.targets) == 1:
                target, value = item.targets[0], item.value
            elif isinstance(item, ast.AnnAssign):
                target, value = item.target, item.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id == table_name and isinstance(value, ast.Dict):
                names = (dotted_name(key) for key in value.keys if key is not None)
                return {last_segment(name) for name in names if name is not None}
    return None


@register
class WireKindRegistryChecker(Checker):
    rule_ids = ("REP301",)
    invariant = (
        "every MSG_KIND_* is unique, exported, classified in exactly one of "
        "SIDE_EFFECTING/READ_ONLY/REPLY, and request kinds are dispatched"
    )

    def run(self, project: Project) -> list[Finding]:
        messages = project.find(MESSAGES_MODULE)
        if messages is None:
            return []
        findings: list[Finding] = []
        kinds = _collect_kinds(messages)
        name_sets = _collect_name_sets(messages)

        def flag(line: int, message: str, path: str | None = None) -> None:
            findings.append(
                Finding(
                    rule="REP301",
                    path=path or messages.path,
                    line=line,
                    col=0,
                    message=message,
                )
            )

        # Unique values.
        by_value: dict[object, str] = {}
        for name, (line, value) in sorted(kinds.items(), key=lambda kv: kv[1][0]):
            if value in by_value:
                flag(line, f"{name} reuses wire value {value!r} of {by_value[value]}")
            else:
                by_value[value] = name

        # Classification sets exist…
        class_sets: dict[str, set[str]] = {}
        for set_name in KIND_CLASS_SETS:
            entry = name_sets.get(set_name)
            if entry is None:
                flag(
                    1,
                    f"classification set {set_name} is not defined in "
                    f"{MESSAGES_MODULE} — every MSG_KIND_* must be "
                    f"classified side-effecting, read-only, or reply",
                )
            else:
                class_sets[set_name] = entry[1]
                for member in sorted(entry[1] - set(kinds)):
                    flag(
                        entry[0],
                        f"{set_name} lists {member}, which is not a "
                        f"MSG_KIND_* constant of {MESSAGES_MODULE}",
                    )

        # …and partition the kinds.
        if len(class_sets) == len(KIND_CLASS_SETS):
            for name, (line, _value) in sorted(kinds.items(), key=lambda kv: kv[1][0]):
                holders = [s for s, members in class_sets.items() if name in members]
                if not holders:
                    flag(
                        line,
                        f"{name} is not classified — add it to exactly one "
                        f"of {', '.join(KIND_CLASS_SETS)}",
                    )
                elif len(holders) > 1:
                    flag(line, f"{name} is classified twice: {', '.join(holders)}")

        # Exported from repro.proto.
        exports_module = project.find(PROTO_EXPORTS_MODULE)
        if exports_module is not None:
            exports = _collect_exports(exports_module)
            if exports is None:
                flag(1, f"{PROTO_EXPORTS_MODULE} defines no __all__", exports_module.path)
            else:
                for name, (line, _value) in sorted(
                    kinds.items(), key=lambda kv: kv[1][0]
                ):
                    if name not in exports:
                        flag(line, f"{name} is not exported from {PROTO_EXPORTS_MODULE}")
                for set_name in KIND_CLASS_SETS:
                    if set_name in name_sets and set_name not in exports:
                        flag(
                            name_sets[set_name][0],
                            f"{set_name} is not exported from {PROTO_EXPORTS_MODULE}",
                        )

        # Request kinds are dispatched by the relay.
        relay = project.find(RELAY_MODULE)
        if relay is not None and len(class_sets) == len(KIND_CLASS_SETS):
            table = ".".join(DISPATCH_TABLE)
            dispatched = _dispatch_table_keys(relay.tree)
            if dispatched is None:
                flag(1, f"{RELAY_MODULE} has no {table} dict literal", relay.path)
            else:
                request_kinds = (
                    class_sets["SIDE_EFFECTING_KINDS"] | class_sets["READ_ONLY_KINDS"]
                )
                for name in sorted(request_kinds & set(kinds)):
                    if name not in dispatched:
                        flag(
                            kinds[name][0],
                            f"request kind {name} has no dispatch branch in "
                            f"{table} — envelopes of this kind "
                            f"would answer 'unexpected message kind'",
                        )
        return findings
