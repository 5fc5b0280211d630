"""D-series rules: determinism hazards.

Each rule targets one way a PR can silently break the repo's byte-
identity guarantee (same spec + seed => same bytes, on every executor
and kernel).  The hazards are exactly the ones the
differential suites can only catch *dynamically*, when a lucky seed
trips them — the point of the static gate is to catch the pattern on
every commit instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.engine import LintViolation, ModuleContext, Rule, register

#: ``random`` module functions that read or write the *global* MT state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "seed", "random", "randint", "randrange", "randbytes", "choice",
        "choices", "shuffle", "sample", "uniform", "triangular",
        "getrandbits", "getstate", "setstate", "betavariate",
        "expovariate", "gammavariate", "gauss", "lognormvariate",
        "normalvariate", "paretovariate", "vonmisesvariate",
        "weibullvariate", "binomialvariate",
    }
)

#: Wall-clock reads: anything whose value depends on when the run
#: happened rather than on the spec + seed.
_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.localtime", "time.gmtime",
        "time.ctime", "time.asctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: RNG draw methods whose *argument* order matters (feeding them an
#: unordered collection consumes randomness in hash order).
_RNG_CONSUMERS = frozenset({"choice", "choices", "sample", "shuffle"})

#: Environment surfaces D105 polices (reads and writes alike).
_ENV_NAMES = frozenset({"os.environ", "os.getenv", "os.putenv", "os.unsetenv"})


def _is_set_like(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to an unordered set (statically visible)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_dict_view(node: ast.AST) -> Optional[str]:
    """``"keys"``/``"values"``/``"items"`` when ``node`` is that view call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


@register
class GlobalRandomState(Rule):
    """D101: calls into the process-global ``random`` / ``numpy.random`` state."""

    rule_id = "D101"
    title = "global RNG state call"
    rationale = (
        "All randomness must flow from per-trial seeds through "
        "explicitly constructed generators (random.Random(seed), the MT "
        "stream bank).  Module-level random.* / numpy.random.* calls "
        "share one hidden global state, so results depend on call order "
        "across the whole process — the exact hazard the serial==mp and "
        "cross-kernel differential suites exist to rule out.  There is no "
        "legitimate use in src/; construct a seeded generator instead."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted is None:
                continue
            if (
                dotted.startswith("random.")
                and dotted.split(".", 1)[1] in _GLOBAL_RANDOM_FNS
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{dotted}() draws from the process-global RNG; "
                    "construct random.Random(seed) instead",
                )
            elif dotted.startswith("numpy.random."):
                yield self.violation(
                    ctx,
                    node,
                    f"{dotted}() uses numpy's global (or entropy-seeded) "
                    "RNG; derive state from the trial seed instead",
                )


@register
class WallClockRead(Rule):
    """D102: wall-clock reads that can leak into result paths."""

    rule_id = "D102"
    title = "wall-clock read"
    rationale = (
        "time.*/datetime.now() values differ run to run, so any result "
        "they touch is unreproducible.  Legitimate uses are wall-clock "
        "telemetry (elapsed-time fields, progress display) that never "
        "feeds a result row or an RNG — suppress those with a "
        "justification saying exactly that."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted in _WALL_CLOCK:
                yield self.violation(
                    ctx,
                    node,
                    f"{dotted}() reads the wall clock; results must be a "
                    "function of spec + seed only",
                )


@register
class UnorderedIteration(Rule):
    """D103: set iteration order (or dict views) feeding ordered output / RNG."""

    rule_id = "D103"
    title = "iteration over unordered collection"
    rationale = (
        "Set iteration order follows item hashes, which vary with "
        "PYTHONHASHSEED and pointer values — looping over a set, "
        "materializing it with list()/tuple(), or feeding a set or dict "
        "view to rng.choice/sample/shuffle makes output depend on that "
        "order.  Sort first (sorted(...) is the sanctioned consumer) or "
        "iterate the original ordered sequence."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_like(node.iter):
                yield self.violation(
                    ctx,
                    node.iter,
                    "for-loop over a set: iteration order follows item "
                    "hashes; sort first",
                )
            elif isinstance(node, ast.comprehension) and _is_set_like(node.iter):
                yield self.violation(
                    ctx,
                    node.iter,
                    "comprehension over a set: iteration order follows "
                    "item hashes; sort first",
                )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call
    ) -> Iterator[LintViolation]:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate", "iter", "next")
            and node.args
            and _is_set_like(node.args[0])
        ):
            yield self.violation(
                ctx,
                node,
                f"{node.func.id}() materializes a set in hash order; "
                "use sorted(...) instead",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _RNG_CONSUMERS
            and node.args
        ):
            arg = node.args[0]
            view = _is_dict_view(arg)
            if _is_set_like(arg) or view is not None:
                what = f"a .{view}() view" if view else "a set"
                yield self.violation(
                    ctx,
                    node,
                    f".{node.func.attr}({what}) consumes randomness in "
                    "collection-iteration order; pass a sorted sequence",
                )


@register
class IdentityOrdering(Rule):
    """D104: ``id()`` / ``hash()`` values, which vary per process."""

    rule_id = "D104"
    title = "id()/hash() identity value"
    rationale = (
        "id() is an address (differs per process, so mp workers disagree "
        "with the serial path) and hash() of str/bytes is randomized per "
        "interpreter start.  Either is fine for *within-process* "
        "dedup/cache keys whose iteration order never reaches output — "
        "every such site must say so in a suppression; anything feeding "
        "ordering, output, or cross-process state is a real bug."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("id", "hash")
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{node.func.id}() varies across processes/interpreter "
                    "starts; justify (within-process key only) or use a "
                    "stable key",
                )


@register
class UnstableTracePayload(Rule):
    """D106: unstable values recorded into trace/telemetry payloads."""

    rule_id = "D106"
    title = "unstable value in a recorded event payload"
    rationale = (
        "Traces and telemetry records are compared across kernels and "
        "re-runs (the differential suite pins full-vs-cheap equality, "
        "and scenario replays diff against stored traces), so a payload "
        "built inside a .record(...) call must be a function of spec + "
        "seed only.  Wall-clock reads, id()/hash() values, set displays, "
        "and dict views all vary run to run or interpreter to "
        "interpreter; compute timings outside the payload (StageTimers "
        "passes precomputed deltas) and sort collections before "
        "recording them."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
            ):
                continue
            for argument in [*node.args, *(kw.value for kw in node.keywords)]:
                yield from self._check_payload(ctx, argument)

    def _check_payload(
        self, ctx: ModuleContext, payload: ast.AST
    ) -> Iterator[LintViolation]:
        for node in ast.walk(payload):
            if _is_set_like(node):
                yield self.violation(
                    ctx,
                    node,
                    "set in a recorded payload: its iteration order "
                    "follows item hashes; record sorted(...) instead",
                )
                continue
            view = _is_dict_view(node)
            if view is not None:
                yield self.violation(
                    ctx,
                    node,
                    f".{view}() view in a recorded payload serializes in "
                    "insertion order; record a sorted sequence instead",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted in _WALL_CLOCK:
                yield self.violation(
                    ctx,
                    node,
                    f"{dotted}() inside a recorded payload: timings "
                    "belong in telemetry deltas computed outside the "
                    "record call, never in event data",
                )
            elif isinstance(node.func, ast.Name) and node.func.id in (
                "id",
                "hash",
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{node.func.id}() inside a recorded payload varies "
                    "per process; use a stable key",
                )


@register
class EnvAccess(Rule):
    """D105: ``os.environ`` / ``os.getenv`` anywhere in ``src/``."""

    rule_id = "D105"
    title = "environment access"
    rationale = (
        "A run is a function of its command line, its spec and its "
        "seed; an environment variable is an input that no row, "
        "scenario file or replay records, and a knob that every "
        "differential suite would have to cover.  Nothing in src/ reads "
        "or writes the environment: a value that must vary per run "
        "becomes a CLI flag or a spec field, and a tuning value becomes "
        "a module constant next to the measurement that chose it."
    )

    def check(self, ctx: ModuleContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Only report the outermost dotted reference, once
            # (os.environ.get(...) is one finding, not three).
            if isinstance(ctx.parents.get(node), ast.Attribute):
                continue
            dotted = ctx.dotted(node)
            if dotted is None:
                continue
            if dotted in _ENV_NAMES or dotted.startswith("os.environ."):
                yield self.violation(
                    ctx,
                    node,
                    f"{dotted}: take the value as a parameter or a "
                    "constant, not from the environment",
                )
