"""K-series rules: kernel/contract parity.

These rules encode project contracts that live *between* modules —
exactly the drift a per-file review misses: a ``@certified`` adversary
quietly reading engine internals the columnar fast path never
materializes, a ``KernelUnsupported`` raised with an ad-hoc message
instead of a rejection-vocabulary reason, or a field added to
``TrialSpec``/``TrialResult`` that silently never reaches the jsonl
rows downstream tooling consumes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.engine import LintViolation, ModuleContext, Rule, register

#: The ``AdversaryContext`` surface the columnar crash engine
#: materializes (see ``repro.core.columnar``'s AdversaryContext
#: reproduction).  Includes the omission budget field
#: (``omission_budget_remaining``) — the fast path materializes it for
#: certified omission plans.  ``processes`` is deliberately absent: it
#: exposes reference-engine process objects that the fast path never
#: builds, so a certified plan reading it is *mis*certified — it would
#: produce different plans on the two engines.  (Mirrors the
#: ``AdversaryContext`` fields minus ``processes``; kept literal so the
#: linter needs no runtime import of the adversary layer.)
CERTIFIED_CTX_FIELDS = frozenset(
    {"round_no", "running", "alive", "outbox", "crashed_so_far",
     "budget_remaining", "omission_budget_remaining"}
)

#: The ``@certified`` methods that plan against an ``AdversaryContext``
#: and therefore must stay on the materialized surface.
_PLAN_METHODS = ("plan", "plan_faults")

#: Kernel names that may appear in a ``KernelUnsupported`` raise (the
#: pinnable engines; ``auto`` never raises, it falls back).
KERNEL_NAME_VOCAB = ("reference", "columnar", "vectorized")

#: The fault-family vocabulary a kernel's ``supported=`` tuple may draw
#: from (mirrors ``repro.adversary.base.FAULT_FAMILIES``; kept literal so
#: the linter needs no runtime import of the adversary layer).
FAULT_FAMILY_VOCAB = ("crash", "omission")

#: The spec/result dataclasses whose fields must reach the jsonl
#: serializer, and the method that serializes them.
_SCHEMA_CLASSES = ("TrialSpec", "TrialResult")
_SERIALIZER = "to_row"


def _imported_class(
    path: str, module: str, name: str
) -> Optional[Tuple[str, ast.ClassDef]]:
    """Top-level class ``name`` of ``module``, read from the source tree
    the file at ``path`` sits in (the nearest ancestor directory holding
    the module's file), with that file's path; None when not found."""
    relative = Path(*module.split(".")).with_suffix(".py")
    for root in Path(path).parents:
        candidate = root / relative
        if candidate.is_file():
            tree = ast.parse(candidate.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return candidate.as_posix(), node
            return None
    return None


def _decorator_names(node: ast.ClassDef) -> List[str]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return names


@register
class CertifiedContextSurface(Rule):
    """K201: ``@certified`` plans must stay on the columnar ctx surface."""

    rule_id = "K201"
    title = "certified adversary off the columnar AdversaryContext surface"
    rationale = (
        "The columnar crash engine reproduces exactly the public "
        "AdversaryContext fields (round_no, running, alive, outbox, "
        "crashed_so_far, budget_remaining, plus the omission budget "
        "state omission_budget_remaining).  A @certified plan or "
        "plan_faults reading anything else — ctx.processes above all — "
        "produces different plans on the reference and fast paths, "
        "breaking the bit-for-bit kernel equivalence the certification "
        "asserts.  Either stay on "
        "the surface or drop the decorator (the run falls back to the "
        "reference engine with an explicit rejection)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "certified" not in _decorator_names(node):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name in _PLAN_METHODS
                ):
                    yield from self._check_plan(ctx, node, item)

    def _check_plan(
        self, ctx: ModuleContext, cls: ast.ClassDef, plan: ast.FunctionDef
    ) -> Iterator[LintViolation]:
        args = plan.args.posonlyargs + plan.args.args
        if len(args) < 2:
            return
        ctx_name = args[1].arg
        for node in ast.walk(plan):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == ctx_name
                and node.attr not in CERTIFIED_CTX_FIELDS
            ):
                detail = (
                    "reference-engine process objects the fast path "
                    "never materializes"
                    if node.attr == "processes"
                    else "not part of the columnar-materialized surface"
                )
                yield self.violation(
                    ctx,
                    node,
                    f"@certified {cls.name}.{plan.name} reads "
                    f"{ctx_name}.{node.attr} ({detail}); certified plans "
                    "may only read: "
                    + ", ".join(sorted(CERTIFIED_CTX_FIELDS)),
                )


@register
class KernelRejectionVocabulary(Rule):
    """K202: ``KernelUnsupported`` raises carry (kernel, vocabulary reason)."""

    rule_id = "K202"
    title = "KernelUnsupported without a vocabulary reason"
    rationale = (
        "Rejections are part of the kernel-selection contract: the "
        "kernel argument must name a pinnable engine "
        "(reference/columnar/vectorized) and the reason must flow from "
        "the shared rejection predicates (a kernel_rejection()/"
        "certification_failure result), not an inline string — inline "
        "messages drift apart from what auto-fallback actually checks, "
        "and tests matching rejection text silently stop covering them.  "
        "The same contract covers the fault families a kernel declares: "
        "a certification_failure(supported=...) tuple outside the "
        "crash/omission vocabulary would make the "
        "rejection name a family no adversary can declare."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc
                if not isinstance(call, ast.Call):
                    continue
                if self._call_name(call) != "KernelUnsupported":
                    continue
                yield from self._check_raise(ctx, node, call)
            elif isinstance(node, ast.Call):
                if self._call_name(node) != "certification_failure":
                    continue
                yield from self._check_supported(ctx, node)

    @staticmethod
    def _call_name(call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return None

    def _check_supported(
        self, ctx: ModuleContext, call: ast.Call
    ) -> Iterator[LintViolation]:
        for kw in call.keywords:
            if kw.arg != "supported":
                continue
            value = kw.value
            if not isinstance(value, (ast.Tuple, ast.List)):
                # A computed vocabulary (variable, helper) is out of this
                # rule's static reach; the runtime predicate still names
                # unsupported families in its rejection text.
                return
            for element in value.elts:
                if (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                    and element.value not in FAULT_FAMILY_VOCAB
                ):
                    yield self.violation(
                        ctx,
                        element,
                        f"supported fault family {element.value!r} is not "
                        "in the vocabulary "
                        f"{FAULT_FAMILY_VOCAB}; rejections must name a "
                        "declarable family",
                    )

    def _check_raise(
        self, ctx: ModuleContext, node: ast.Raise, call: ast.Call
    ) -> Iterator[LintViolation]:
        args: List[Optional[ast.expr]] = [None, None]  # kernel, reason
        positional = list(call.args)
        for i in range(min(2, len(positional))):
            args[i] = positional[i]
        for kw in call.keywords:
            if kw.arg == "kernel":
                args[0] = kw.value
            elif kw.arg == "reason":
                args[1] = kw.value
        kernel, reason = args
        if kernel is None or reason is None or len(positional) > 2:
            yield self.violation(
                ctx,
                node,
                "KernelUnsupported takes exactly (kernel, reason)",
            )
            return
        if (
            isinstance(kernel, ast.Constant)
            and isinstance(kernel.value, str)
            and kernel.value not in KERNEL_NAME_VOCAB
        ):
            yield self.violation(
                ctx,
                node,
                f"kernel {kernel.value!r} is not in the pinnable-engine "
                f"vocabulary {KERNEL_NAME_VOCAB}",
            )
        if isinstance(reason, ast.Constant) and isinstance(reason.value, str):
            yield self.violation(
                ctx,
                node,
                "inline literal reason; pass the kernel_rejection()/"
                "certification_failure result so the raise and the "
                "auto-fallback share one rejection vocabulary",
            )


@register
class SchemaDrift(Rule):
    """K203: every ``TrialSpec``/``TrialResult`` field reaches ``to_row``."""

    rule_id = "K203"
    title = "TrialSpec/TrialResult field missing from the jsonl serializer"
    rationale = (
        "The jsonl rows are the interchange format between the batch "
        "engine, the hunt/tail tooling, and offline analysis; a field "
        "added to TrialSpec/TrialResult but not to to_row() silently "
        "vanishes from every persisted artifact.  The rule matches "
        "field names against the string keys to_row() emits.  Fields "
        "that are deliberately not serialized (composites flattened "
        "into other keys, unbounded payloads) carry a per-field "
        "suppression saying why.  A schema class the serializer's "
        "module imports from another module of the same source tree "
        "(TrialSpec lives in repro.sim.specs) is checked there too, "
        "with its findings on the import line."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        classes = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef) and node.name in _SCHEMA_CLASSES
        }
        if not classes:
            return
        serialized: Set[str] = set()
        for cls in classes.values():
            serialized |= self._serialized_keys(cls)
        if not serialized:
            # No serializer in this module: nothing to check against
            # (e.g. a TrialSpec re-export or test double).
            return
        for cls in classes.values():
            for item, field_name in self._unserialized(cls, serialized):
                yield self.violation(
                    ctx,
                    item,
                    f"{cls.name}.{field_name} never appears in "
                    f"{_SERIALIZER}(); serialize it or justify the "
                    "omission with a suppression",
                )
        for node in ctx.tree.body:
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            for alias in node.names:
                if alias.name not in _SCHEMA_CLASSES or alias.name in classes:
                    continue
                found = _imported_class(ctx.path, node.module, alias.name)
                if found is None:
                    continue
                where, imported = found
                for item, field_name in self._unserialized(imported, serialized):
                    yield self.violation(
                        ctx,
                        node,
                        f"{alias.name}.{field_name} ({where}:{item.lineno}) "
                        f"never appears in {_SERIALIZER}(); serialize it or "
                        "justify the omission with a suppression",
                    )

    @staticmethod
    def _unserialized(
        cls: ast.ClassDef, serialized: Set[str]
    ) -> Iterator[Tuple[ast.AnnAssign, str]]:
        """The public annotated fields of ``cls`` no serializer key names."""
        for item in cls.body:
            if not isinstance(item, ast.AnnAssign):
                continue
            if not isinstance(item.target, ast.Name):
                continue
            field_name = item.target.id
            if not field_name.startswith("_") and field_name not in serialized:
                yield item, field_name

    @staticmethod
    def _serialized_keys(cls: ast.ClassDef) -> Set[str]:
        """String keys the class's serializer emits (dict literals and
        ``row["key"] = ...`` stores)."""
        keys: Set[str] = set()
        for item in cls.body:
            if not (
                isinstance(item, ast.FunctionDef) and item.name == _SERIALIZER
            ):
                continue
            for node in ast.walk(item):
                if isinstance(node, ast.Dict):
                    for key in node.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            keys.add(key.value)
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Subscript)
                ):
                    sub = node.targets[0].slice
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        keys.add(sub.value)
        return keys
