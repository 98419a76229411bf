"""Checker framework: findings, suppressions, module loading, the runner.

A :class:`Checker` inspects one :class:`SourceModule` (path + source +
parsed AST) and yields :class:`Finding` rows. The runner applies the
``# repro-lint: disable=<IDS> <reason>`` suppression comments, audits
the suppressions themselves (LNT001 missing reason, LNT002 unused), and
returns findings in a canonical order so two runs over the same tree
are byte-identical.

Whole-program (two-phase) analysis lives in :mod:`repro.lint.project`;
this module deliberately knows nothing about it beyond the split
between *producing* raw findings (:func:`analyze_module`) and
*finishing* them (:func:`apply_suppressions`), which the project runner
reuses so per-module and cross-module findings share one suppression
and ordering pipeline.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

#: Matches one suppression comment anywhere on a physical line.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"[ \t]*(.*)$")

#: Framework self-audit check ids (not suppressible).
LNT_MISSING_REASON = "LNT001"
LNT_UNUSED = "LNT002"

#: Finding severities, in SARIF vocabulary. ``error`` findings break
#: determinism or the architecture outright; ``warning`` findings are
#: hazards (state leaking between runs, leaked spans, masked chaos
#: faults); ``note`` is framework self-audit.
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which check, and what went wrong."""

    path: str
    line: int
    col: int
    check: str
    message: str
    severity: str = "error"

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.check, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.check} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "check": self.check, "message": self.message,
                "severity": self.severity}


@dataclass
class Suppression:
    """A parsed ``# repro-lint: disable=...`` comment."""

    line: int
    checks: tuple[str, ...]
    reason: str
    used: bool = field(default=False, compare=False)

    def covers(self, check: str) -> bool:
        return check in self.checks or "all" in self.checks


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """Extract suppression comments, keyed by 1-based line number.

    The comment must sit on the same physical line as the finding it
    silences. The trailing free text is the (mandatory) reason. Only
    real ``COMMENT`` tokens count — the syntax appearing inside a
    string literal (docs, the self-test fixture) is inert.
    """
    suppressions: dict[int, Suppression] = {}
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        checks = tuple(part.strip() for part in match.group(1).split(",")
                       if part.strip())
        suppressions[lineno] = Suppression(
            line=lineno, checks=checks, reason=match.group(2).strip())
    return suppressions


def module_name_from_path(path: str) -> Optional[str]:
    """Dotted module name for a file path, anchored at ``repro``.

    ``src/repro/sim/kernel.py`` → ``repro.sim.kernel``;
    ``src/repro/sim/__init__.py`` → ``repro.sim``. Returns ``None``
    when the path does not contain a ``repro`` package component
    (architecture checks are skipped for such files).
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" not in parts:
        return None
    return ".".join(parts[parts.index("repro"):])


class SourceModule:
    """One parsed source file handed to every checker."""

    def __init__(self, path: str, source: str,
                 module: Optional[str] = None) -> None:
        self.path = path
        self.source = source
        self.module = module if module is not None \
            else module_name_from_path(path)
        self.tree = ast.parse(source, filename=path)
        self.suppressions = parse_suppressions(source)

    def finding(self, node: ast.AST, check: str, message: str,
                severity: str = "error") -> Finding:
        """Convenience constructor anchored at an AST node."""
        return Finding(path=self.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       check=check, message=message, severity=severity)


class Checker:
    """Base class: subclasses set ``id``/``title`` and yield findings.

    ``severity`` is the default level of every finding the checker
    emits; ``rationale`` / ``example_bad`` / ``example_good`` feed
    ``repro lint --explain <ID>`` and the SARIF rule catalog.
    """

    id: str = "LNT000"
    title: str = ""
    severity: str = "error"
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id}>"


def analyze_module(module: SourceModule,
                   checkers: Iterable[Checker]) -> list[Finding]:
    """Raw per-module findings, *before* suppression filtering."""
    checkers = sorted(checkers, key=lambda c: c.id)
    return [finding for checker in checkers
            for finding in checker.check(module)]


def apply_suppressions(
        raw_findings: Iterable[Finding],
        suppressions_by_path: dict[str, dict[int, Suppression]],
) -> list[Finding]:
    """Filter raw findings through suppressions; audit; canonical sort.

    This is the single finishing pipeline for per-module *and*
    whole-program findings — a ``# repro-lint: disable=CONC001 ...``
    comment silences a cross-module finding anchored on its line
    exactly like a local one.
    """
    kept: list[Finding] = []
    for finding in sorted(raw_findings, key=lambda f: f.sort_key):
        suppression = suppressions_by_path.get(
            finding.path, {}).get(finding.line)
        if suppression is not None and suppression.covers(finding.check):
            suppression.used = True
            continue
        kept.append(finding)
    for path in sorted(suppressions_by_path):
        suppressions = suppressions_by_path[path]
        for lineno in sorted(suppressions):
            suppression = suppressions[lineno]
            if not suppression.reason:
                kept.append(Finding(
                    path=path, line=lineno, col=1,
                    check=LNT_MISSING_REASON, severity="note",
                    message="suppression comment has no reason; write "
                            "'# repro-lint: disable=<IDS> <why>'"))
            if not suppression.used:
                ids = ",".join(suppression.checks)
                kept.append(Finding(
                    path=path, line=lineno, col=1,
                    check=LNT_UNUSED, severity="note",
                    message=f"suppression 'disable={ids}' matches no "
                            f"finding on this line; remove it"))
    return sorted(kept, key=lambda f: f.sort_key)


def lint_modules(modules: Iterable[SourceModule],
                 checkers: Iterable[Checker]) -> list[Finding]:
    """Run every checker over every module; apply suppressions; sort."""
    modules = list(modules)
    raw = [finding for module in modules
           for finding in analyze_module(module, checkers)]
    return apply_suppressions(
        raw, {module.path: module.suppressions for module in modules})


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files, key=lambda p: p.as_posix())

