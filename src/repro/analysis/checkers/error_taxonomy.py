"""REP401/REP402 — typed-error taxonomy in the transport/relay/driver layers.

The failover loop (:meth:`RelayService._exchange`) and the capability
gate both route on *exception type*: ``RelayUnavailableError`` engages
failover, ``UnsupportedCapabilityError`` fails closed, everything else
is a bug that must surface. A broad ``except Exception`` that swallows
or re-raises untyped silently converts "the relay misbehaved" into "the
request quietly succeeded/failed", which is exactly the misbehaviour the
paper's trust argument says must stay *detectable*.

Inside the layers listed in
:data:`repro.analysis.invariants.ERROR_TAXONOMY_LAYERS`, a handler for
``Exception`` / ``BaseException`` / a bare ``except:`` is allowed only
when it does one of:

- **re-raise preserving type** — a bare ``raise`` statement;
- **re-raise typed** — ``raise SomethingError(...) [from exc]`` (the
  conventional ``*Error`` suffix marks the repo's typed taxonomy);
- **answer an error envelope** — ``return self._error_envelope(...)``
  (or another registered answer helper): the documented relay contract
  is that a remote peer cannot catch our exceptions, so protocol
  failures are answered, not raised;
- **carry a tagged rationale** — ``# noqa: BLE001 <why>`` on the
  ``except`` line. The tag doubles as ruff's blind-except suppression,
  and the rationale is mandatory: a bare tag is itself a finding.

REP402: in the same layers, an ``except`` naming ``AttributeError`` is a
finding. A request with a missing wire field is a decision to answer with
a typed error, not an attribute lookup to catch: five such catches once
answered a request with no verification policy "malformed verification
policy: 'NoneType' object has no attribute 'expression'".
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleSource,
    Project,
    dotted_name,
    iter_functions,
    last_segment,
    register,
    walk_frame,
)
from repro.analysis.invariants import ERROR_ANSWER_HELPERS, ERROR_TAXONOMY_LAYERS

_NOQA_RE = re.compile(r"#\s*noqa:\s*(?P<codes>[A-Z0-9, ]*BLE001[A-Z0-9, ]*)(?P<rest>.*)$")


def _caught(handler: ast.ExceptHandler) -> list[str]:
    """The class names an ``except`` clause lists (last dotted segment)."""
    node = handler.type
    if node is None:
        return []
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    return [last_segment(dotted_name(element) or "") for element in elements]


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare `except:`
    return any(name in ("Exception", "BaseException") for name in _caught(handler))


def _noqa_rationale(line_text: str) -> tuple[bool, bool]:
    """(has a BLE001 noqa tag, tag carries a non-empty rationale)."""
    match = _NOQA_RE.search(line_text)
    if match is None:
        return False, False
    rationale = match.group("rest").strip(" -:\t")
    return True, bool(rationale)


class _HandlerBodyScan(ast.NodeVisitor):
    """Looks for an allowed resolution inside one handler body."""

    def __init__(self) -> None:
        self.allowed = False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Raise(self, node: ast.Raise) -> None:
        if node.exc is None:
            self.allowed = True  # bare re-raise preserves the type
            return
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call):
            name = dotted_name(exc.func)
        else:
            name = dotted_name(exc)
        if name is not None and last_segment(name).endswith("Error"):
            self.allowed = True

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Call):
            name = dotted_name(node.value.func)
            if name is not None and last_segment(name) in ERROR_ANSWER_HELPERS:
                self.allowed = True
        self.generic_visit(node)


@register
class ErrorTaxonomyChecker(Checker):
    rule_ids = ("REP401", "REP402")
    invariant = (
        "broad except blocks in transport/relay/driver layers re-raise "
        "typed, answer an error envelope, or carry a rationale tag; no "
        "handler there names AttributeError"
    )

    def __init__(self, layers: tuple[str, ...] | None = None) -> None:
        self.layers = layers if layers is not None else ERROR_TAXONOMY_LAYERS

    def _in_scope(self, module: ModuleSource) -> bool:
        return any(layer in module.path for layer in self.layers)

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if not self._in_scope(module):
                continue
            for info in iter_functions(module):
                for node in walk_frame(info.node):
                    if not isinstance(node, ast.ExceptHandler):
                        continue
                    if "AttributeError" in _caught(node):
                        findings.append(
                            Finding(
                                rule="REP402",
                                path=module.path,
                                line=node.lineno,
                                col=node.col_offset,
                                symbol=info.qualname,
                                message=(
                                    "handler names AttributeError — check the "
                                    "missing field and raise a typed *Error "
                                    "instead of catching the lookup"
                                ),
                            )
                        )
                    if _is_broad(node):
                        self._check_handler(module, info.qualname, node, findings)
        return findings

    def _check_handler(
        self,
        module: ModuleSource,
        qualname: str,
        handler: ast.ExceptHandler,
        findings: list[Finding],
    ) -> None:
        tagged, has_rationale = _noqa_rationale(module.line_text(handler.lineno))
        if tagged and has_rationale:
            return
        if tagged and not has_rationale:
            findings.append(
                Finding(
                    rule="REP401",
                    path=module.path,
                    line=handler.lineno,
                    col=handler.col_offset,
                    symbol=qualname,
                    message=(
                        "broad except carries a bare `# noqa: BLE001` tag — "
                        "the rationale is mandatory (`# noqa: BLE001 <why>`)"
                    ),
                )
            )
            return
        scan = _HandlerBodyScan()
        for stmt in handler.body:
            scan.visit(stmt)
        if scan.allowed:
            return
        findings.append(
            Finding(
                rule="REP401",
                path=module.path,
                line=handler.lineno,
                col=handler.col_offset,
                symbol=qualname,
                message=(
                    "broad except swallows or re-raises untyped — re-raise a "
                    "typed *Error, answer an error envelope, or tag "
                    "`# noqa: BLE001 <rationale>`"
                ),
            )
        )
