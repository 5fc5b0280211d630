"""``repro lint`` — the determinism & kernel-parity static analyzer.

Every guarantee this repro sells — byte-identical results across
executors and kernels — is otherwise enforced only dynamically, by
differential suites that cannot see a hazard until a seed happens to
trip it.  This package turns the determinism contract into a static
gate that runs on every commit (the tier-1 ``lint`` CI job): an AST
pass over ``src/`` with two project-specific rule families.

* **D-series** — determinism hazards (global RNG state, wall-clock
  reads, unordered iteration, identity ordering, any environment
  read).
* **K-series** — kernel/contract parity (``@certified`` adversaries
  stay on the columnar ``AdversaryContext`` surface,
  ``KernelUnsupported`` raises carry vocabulary reasons,
  ``TrialSpec``/``TrialResult`` fields reach the jsonl serializer).

Known-good exceptions are waived per line with a justified
``# repro: lint-ok[RULE] why`` comment; the engine flags unjustified
and unused waivers, so the suppression inventory is an audited list of
every hazard the project has consciously accepted.  See LINTING.md for
the full rule catalogue.
"""

from repro.lint.engine import (
    LintViolation,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.lint.report import render_report, render_rules

__all__ = [
    "LintViolation",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "render_report",
    "render_rules",
]
