"""Core machinery of the invariant checkers: project model + findings.

The analysis pass is deliberately dependency-free: it parses the tree
with the stdlib :mod:`ast` module and never imports the code it checks,
so it can run on any checkout (including one that is currently broken at
import time) and inside CI before the test suite.

Vocabulary:

- a :class:`ModuleSource` is one parsed ``.py`` file;
- a :class:`Project` is the set of modules one analysis run covers
  (normally ``src/``, or in-memory sources in fixture tests);
- a :class:`Checker` encodes ONE repo invariant and emits
  :class:`Finding` records; checkers are registered with
  :func:`register` and discovered via :func:`all_checkers`;
- :func:`run_analysis` runs every checker over a project and returns
  the findings sorted by location.

Checkers receive the *whole* project, not single files, because the
interesting invariants are cross-file (a wire kind declared in
``proto/messages.py`` must be dispatched in ``interop/relay.py``; a
capability flag granted in one driver module may be implemented in a
base class defined in another).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one source location."""

    rule: str  #: rule id, e.g. "REP102"
    path: str  #: project-relative posix path
    line: int
    col: int
    message: str
    symbol: str = ""  #: enclosing qualname, e.g. "RelayService._dispatch"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.location()}: {self.rule} {self.message}{where}"


class ModuleSource:
    """One parsed source file."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def endswith(self, suffix: str) -> bool:
        return self.path.endswith(suffix)


class Project:
    """The set of modules covered by one analysis run."""

    def __init__(self, modules: Iterable[ModuleSource]) -> None:
        self.modules = list(modules)
        self.errors: list[str] = []

    @classmethod
    def from_paths(cls, roots: Iterable[str | Path], base: str | Path | None = None) -> "Project":
        """Load every ``.py`` file under ``roots``.

        Paths in findings are made relative to ``base`` (default: the
        current working directory) when possible, absolute otherwise.
        Files that fail to parse are recorded in :attr:`errors` rather
        than aborting the run — a syntax error in one module must not
        hide findings in the others.
        """
        base_path = Path(base) if base is not None else Path.cwd()
        modules: list[ModuleSource] = []
        errors: list[str] = []
        for root in roots:
            root_path = Path(root)
            if root_path.is_file():
                files = [root_path]
            else:
                files = sorted(root_path.rglob("*.py"))
            for file in files:
                try:
                    rel = file.resolve().relative_to(base_path.resolve())
                    shown = rel.as_posix()
                except ValueError:
                    shown = file.as_posix()
                try:
                    text = file.read_text(encoding="utf-8")
                    modules.append(ModuleSource(shown, text))
                except (OSError, SyntaxError, ValueError) as exc:
                    errors.append(f"{shown}: {exc}")
        project = cls(modules)
        project.errors = errors
        return project

    @classmethod
    def from_sources(cls, sources: dict) -> "Project":
        """An in-memory project (fixture tests)."""
        return cls(ModuleSource(path, text) for path, text in sources.items())

    def find(self, suffix: str) -> ModuleSource | None:
        """The module whose path ends with ``suffix`` (``None`` if absent)."""
        for module in self.modules:
            if module.endswith(suffix):
                return module
        return None


# ---------------------------------------------------------------------------
# Checker registry
# ---------------------------------------------------------------------------


class Checker:
    """One repo invariant, encoded. Subclass and override :meth:`run`."""

    #: Rule ids this checker can emit (shown by ``--list-rules``).
    rule_ids: tuple[str, ...] = ()
    #: One-line statement of the invariant being enforced.
    invariant: str = ""

    def run(self, project: Project) -> list[Finding]:
        raise NotImplementedError


_REGISTRY: list[Callable[[], Checker]] = []


def register(factory: Callable[[], Checker]) -> Callable[[], Checker]:
    """Class decorator: add a checker to the default suite."""
    _REGISTRY.append(factory)
    return factory


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker."""
    # Importing the checker modules registers them; done lazily so that
    # `import repro.analysis.core` alone stays side-effect free.
    from repro.analysis import checkers  # noqa: F401 - registration import

    return [factory() for factory in _REGISTRY]


def run_analysis(project: Project, checkers: Iterable[Checker] | None = None) -> list[Finding]:
    """Run ``checkers`` (default: all registered) over ``project``."""
    suite = list(checkers) if checkers is not None else all_checkers()
    findings: list[Finding] = []
    for checker in suite:
        findings.extend(checker.run(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains as a string (else ``None``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def last_segment(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


@dataclass
class FunctionInfo:
    """One function/method definition with its enclosing context."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    class_name: str | None = None
    is_async: bool = field(init=False)

    def __post_init__(self) -> None:
        self.is_async = isinstance(self.node, ast.AsyncFunctionDef)


def walk_frame(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function body without entering nested def/lambda frames.

    Nested functions are separate :func:`iter_functions` entries; a
    checker that walked them from the enclosing frame too would report
    every nested finding twice (once per qualname).
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def iter_functions(module: ModuleSource) -> Iterator[FunctionInfo]:
    """Yield every function/method in the module with its qualname.

    Nested functions are yielded too (their bodies are otherwise skipped
    by the scanners, which treat a nested ``def`` as a deferred-execution
    boundary), each with a dotted qualname.
    """

    def walk(body: list[ast.stmt], prefix: str, class_name: str | None) -> Iterator[FunctionInfo]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                yield FunctionInfo(node=node, qualname=qual, class_name=class_name)
                yield from walk(node.body, f"{qual}.", class_name)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.", node.name)

    yield from walk(module.tree.body, "", None)


def enclosing_function(module: ModuleSource, line: int) -> str:
    """Qualname of the innermost function spanning ``line`` ("" at module level)."""
    best: str = ""
    best_span: int | None = None
    for info in iter_functions(module):
        start, end = info.node.lineno, info.node.end_lineno or info.node.lineno
        if start <= line <= end and (best_span is None or end - start < best_span):
            best, best_span = info.qualname, end - start
    return best
