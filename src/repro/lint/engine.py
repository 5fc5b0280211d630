"""AST walker, rule registry, and suppression comments for ``repro lint``.

A *rule* is a small object with an id (``D101``), a one-line title, a
rationale paragraph (rendered by ``repro lint --rules`` and LINTING.md),
and a ``check`` generator over one parsed module.  The engine owns
everything rules should not re-implement: file discovery, parsing,
parent links, dotted-name resolution through import aliases, suppression
comments, and the two meta-rules about suppressions themselves.

Suppressions
------------
A violation is waived by a ``# repro: lint-ok[RULE] justification``
comment on the flagged line, or on a comment-only line directly above
it.  The justification text is mandatory (S001) and a waiver that
matches no violation is itself flagged (S002), so every suppression in
the tree documents a real, consciously accepted exception.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError

#: Waiver grammar: "repro: lint-ok[D101] why" or "lint-ok[D101,K203] why"
#: after a hash (spelled without the hash here so this comment is not
#: itself parsed as a waiver).
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<rules>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\]"
    r"(?P<why>[^\n]*)"
)


class LintConfigError(ReproError):
    """The linter was invoked on paths or rules that do not exist."""


@dataclass(frozen=True)
class LintViolation:
    """One finding: a rule, a location, and the offending message."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line: RULE message`` (the clickable report line)."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One ``lint-ok`` waiver: the rules it names and the lines it covers."""

    line: int
    rules: Tuple[str, ...]
    covers: Tuple[int, ...]
    justified: bool


class ModuleContext:
    """One parsed module plus the shared lookups every rule needs."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        #: child -> parent for every AST node (set-membership decisions,
        #: "is this iteration feeding an ordered sink" style questions).
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: ``alias -> module`` for plain imports (``import numpy as np``
        #: maps ``np -> numpy``) and ``name -> module.name`` for
        #: from-imports (``from time import time`` maps
        #: ``time -> time.time``).
        self.import_aliases: Dict[str, str] = {}
        self.from_imports: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def dotted(self, node: ast.AST) -> Optional[str]:
        """``node`` as a dotted name with import aliases resolved.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when the
        module imported ``numpy as np``; a bare name imported via
        ``from x import y`` resolves to ``x.y``.  Non-name expressions
        resolve to None.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        if head in self.import_aliases:
            head = self.import_aliases[head]
        elif head in self.from_imports:
            head = self.from_imports[head]
        parts.append(head)
        return ".".join(reversed(parts))

    def is_comment_only(self, line: int) -> bool:
        """Whether 1-indexed ``line`` holds nothing but a comment."""
        if not 1 <= line <= len(self.lines):
            return False
        return self.lines[line - 1].lstrip().startswith("#")


class Rule:
    """Base class for lint rules; subclasses register via :func:`register`."""

    rule_id: str = ""
    title: str = ""
    #: What determinism/parity property the rule protects and when a
    #: suppression is legitimate — rendered verbatim in the catalogue.
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        """Yield this rule's findings for one module."""
        raise NotImplementedError

    def violation(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> LintViolation:
        """A finding anchored at ``node``'s line."""
        return LintViolation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            rule=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one :class:`Rule` subclass to the registry."""
    rule = cls()
    if not rule.rule_id or not rule.title or not rule.rationale:
        raise AssertionError(f"rule {cls.__name__} is missing id/title/rationale")
    if rule.rule_id in _REGISTRY:
        raise AssertionError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in id order (rule modules imported lazily)."""
    # Importing the rule modules populates the registry as a side effect.
    from repro.lint import rules_contracts  # noqa: F401
    from repro.lint import rules_determinism  # noqa: F401

    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


# ------------------------------------------------------------- suppressions


def find_suppressions(source: str) -> List[Suppression]:
    """Every ``lint-ok`` waiver in ``source``, with covered lines.

    A waiver on a code line covers that line; a waiver on a comment-only
    line covers the comment line and the line below it (the idiomatic
    "justification above the statement" placement).
    """
    lines = source.splitlines()
    found: List[Suppression] = []
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",")
        )
        covers: Tuple[int, ...] = (lineno,)
        if text.lstrip().startswith("#"):
            covers = (lineno, lineno + 1)
        found.append(
            Suppression(
                line=lineno,
                rules=rules,
                covers=covers,
                justified=bool(match.group("why").strip()),
            )
        )
    return found


def _apply_suppressions(
    ctx: ModuleContext,
    violations: List[LintViolation],
    suppressions: List[Suppression],
) -> List[LintViolation]:
    """Drop waived findings; flag unjustified (S001) and unused (S002) waivers."""
    kept: List[LintViolation] = []
    used: Set[int] = set()
    known = {rule.rule_id for rule in all_rules()}
    for violation in violations:
        waived = False
        for idx, sup in enumerate(suppressions):
            if violation.rule in sup.rules and violation.line in sup.covers:
                used.add(idx)
                waived = True
        if not waived:
            kept.append(violation)
    for idx, sup in enumerate(suppressions):
        if not sup.justified:
            kept.append(
                LintViolation(
                    path=ctx.path,
                    line=sup.line,
                    rule="S001",
                    message=(
                        "suppression without justification: follow "
                        "lint-ok[...] with why the hazard is acceptable"
                    ),
                )
            )
        unknown = [rule for rule in sup.rules if rule not in known]
        for rule in unknown:
            kept.append(
                LintViolation(
                    path=ctx.path,
                    line=sup.line,
                    rule="S002",
                    message=f"suppression names unknown rule {rule!r}",
                )
            )
        if idx not in used and not unknown:
            kept.append(
                LintViolation(
                    path=ctx.path,
                    line=sup.line,
                    rule="S002",
                    message=(
                        "unused suppression: no "
                        + "/".join(sup.rules)
                        + " finding on the covered line(s) — delete it"
                    ),
                )
            )
    kept.sort(key=lambda v: (v.path, v.line, v.rule))
    return kept


# ------------------------------------------------------------------ running


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[LintViolation]:
    """Lint one module's source text; syntax errors are findings too."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            LintViolation(
                path=path,
                line=error.lineno or 1,
                rule="E999",
                message=f"syntax error: {error.msg}",
            )
        ]
    ctx = ModuleContext(path=path, source=source, tree=tree)
    found: List[LintViolation] = []
    for rule in rules if rules is not None else all_rules():
        found.extend(rule.check(ctx))
    return _apply_suppressions(ctx, found, find_suppressions(source))


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintConfigError(f"no such file or directory: {raw}")
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[LintViolation]:
    """Lint every python file under ``paths``; findings in path order."""
    found: List[LintViolation] = []
    for file_path in iter_python_files(paths):
        found.extend(
            lint_source(
                file_path.read_text(encoding="utf-8"),
                path=file_path.as_posix(),
                rules=rules,
            )
        )
    return found
