"""Layer spans for the profile's traced rounds, recorded from outside ``src/``.

Run as a program, this file stands in for ``python -m repro``::

    python benchmarks/profile/traced.py SPANS_DIR batch --sizes 32 ...

It times ``import repro.cli`` and ``repro.cli.main(argv)`` as the two
top-level spans.  Between them it wraps the public functions of each
layer (:data:`TARGETS`), so every call records a span: name, start, end
and the span that caused it, plus the counts listed for that target.

Three rules keep the wrapping honest:

* every module attribute identical to a wrapped function is rebound
  too (``repro.cli.run_batch`` was bound by ``from ... import``), and
  :meth:`Tracer.uninstall` restores each one;
* modules the program imports later are wrapped as their import
  finishes, so tracing loads nothing the program would not load
  (``cli.numpy_loaded`` stays meaningful);
* pool workers forked from the traced process inherit the wrappers and
  append their spans to ``worker-<pid>.jsonl``, flushed per span,
  because ``Pool.__exit__`` terminates workers without running
  ``atexit``.

Wrapping never changes what a function returns, so a traced round must
reproduce the untraced outcome digest; ``run.py`` checks that it does.
The span arithmetic (:func:`layer_metrics`) lives here too, so the
harness and its tests share one definition of self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.abc
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: A call's ``(args, result)`` -> counts recorded on its span, keyed by
#: the metric they add to.
Counter = Callable[[tuple, Any], Dict[str, float]]


def _plan_counts(args: tuple, tasks: Any) -> Dict[str, float]:
    trials = [len(task) if isinstance(task, tuple) else 1 for task in tasks]
    stacked = sum(len(task) for task in tasks if isinstance(task, tuple))
    return {
        "sim.batch.plan_tasks.tasks": len(tasks),
        "sim.batch.plan_tasks.trials": sum(trials),
        "sim.batch.plan_tasks.stacked": stacked,
    }


#: (module, attribute path, span name, counter).  Classes that implement
#: one layer step twice (failure-free and crash engines, the two
#: executors) share a span name, so a metric covers both.
TARGETS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.sim.batch", "run_batch", "sim.batch.run_batch", None),
    ("repro.sim.batch", "plan_tasks", "sim.batch.plan_tasks", _plan_counts),
    ("repro.sim.batch", "SerialExecutor.run_tasks", "sim.batch.run_tasks", None),
    (
        "repro.sim.batch",
        "MultiprocessingExecutor.run_tasks",
        "sim.batch.run_tasks",
        None,
    ),
    ("repro.sim.batch", "run_cell", "sim.batch.run_cell", None),
    ("repro.sim.batch", "run_trial", "sim.batch.run_trial", None),
    ("repro.sim.batch", "AdversarySpec.build", "sim.batch.AdversarySpec.build", None),
    ("repro.sim.batch", "TrialResult.to_row", "sim.batch.TrialResult.to_row", None),
    ("repro.sim.runner", "run_renaming", "sim.runner.run_renaming", None),
    (
        "repro.sim.kernel",
        "select_kernel",
        "sim.kernel.select_kernel",
        lambda args, kernel: {f"sim.kernel.{kernel.name}": 1},
    ),
    (
        "repro.sim.vectorized",
        "run_stacked_cell",
        "sim.vectorized.run_stacked_cell",
        lambda args, cell: {
            "sim.vectorized.run_stacked_cell.streams": cell.trials * cell.n
        },
    ),
    ("repro.sim.vectorized", "StackedCellRun.check", "sim.checker.check", None),
    ("repro.sim.vectorized", "StackedCrashCellRun.check", "sim.checker.check", None),
    ("repro.sim.vectorized", "StackedCrashCellRun.spec_ok", "sim.checker.check", None),
    ("repro.sim.checker", "check_renaming", "sim.checker.check", None),
    (
        "repro.core.vectorized",
        "VectorizedCellEngine.__init__",
        "core.vectorized.engine_init",
        None,
    ),
    (
        "repro.core.vectorized",
        "VectorizedCrashEngine.__init__",
        "core.vectorized.engine_init",
        None,
    ),
    ("repro.core.vectorized", "VectorizedCellEngine.run", "core.vectorized.engine.run", None),
    ("repro.core.vectorized", "VectorizedCrashEngine.run", "core.vectorized.engine.run", None),
    (
        "repro.core.vectorized",
        "VectorizedCellEngine.export_trial_state",
        "core.vectorized.export_trial_state",
        None,
    ),
    (
        "repro.core.vectorized",
        "VectorizedCellEngine.inject_trial_states",
        "core.vectorized.inject_trial_states",
        None,
    ),
    ("repro.core.columnar", "ColumnarBallsEngine.__init__", "core.columnar.engine_init", None),
    ("repro.core.columnar", "ColumnarCrashEngine.__init__", "core.columnar.engine_init", None),
    ("repro.core.columnar", "ColumnarBallsEngine.step", "core.columnar.step", None),
    ("repro.core.columnar", "ColumnarCrashEngine.step", "core.columnar.step", None),
    (
        "repro.core.mt19937",
        "seed_states",
        "core.mt19937.seed_states",
        lambda args, states: {"core.mt19937.seed_states.streams": len(args[0])},
    ),
    ("repro.core.mt19937", "MTStreamBank.draws", "core.mt19937.MTStreamBank.draws", None),
    (
        "repro.search.strategies",
        "Evaluator.evaluate",
        "search.Evaluator.evaluate",
        lambda args, evaluations: {"search.evaluations": len(evaluations)},
    ),
    ("repro.search.baseline", "evaluate_bundled", "search.evaluate_bundled", None),
    ("repro.search.shrink", "shrink", "search.shrink", None),
    ("repro.search.shrink", "replay_identical", "search.replay_identical", None),
    ("repro.monitor.splitting", "run_tail", "monitor.splitting.run_tail", None),
    # The pool's task function: the root span of every tail worker task.
    ("repro.monitor.splitting", "_run_tail_chunk", "monitor.splitting.run_tail_chunk", None),
    ("multiprocessing.pool", "Pool.__init__", "mp.Pool.start", None),
    (
        "multiprocessing.pool",
        "Pool.map",
        "mp.Pool.map",
        lambda args, result: {"mp.Pool.map.processes": args[0]._processes},
    ),
    ("repro.analysis.runstats", "render_stats", "analysis.runstats.render_stats", None),
    ("repro.analysis.timeline", "render_timeline", "analysis.timeline.render_timeline", None),
    ("repro.search.scenario", "load_scenario", "search.scenario.load_scenario", None),
    ("repro.sim.trace", "read_trace", "sim.trace.read_trace", None),
)

#: Top-level spans the shim itself opens, and the span around wrapping a
#: module imported mid-run (kept out of the layers' self time).
IMPORT_SPAN, MAIN_SPAN, WRAP_SPAN = "cli.import", "cli.main", "trace.wrap"

#: One recorded span: (id, parent id or 0, name, start, end, counts).
Span = Tuple[int, int, str, float, float, Optional[Dict[str, float]]]


def known_metrics() -> Dict[str, str]:
    """Every per-layer metric name this harness computes, with its unit.

    Counter names are collected by the counters at run time; the ones a
    benchmark may list are declared here, so a misspelt name fails fast.
    """
    metrics: Dict[str, str] = {}
    spans = [IMPORT_SPAN, MAIN_SPAN, WRAP_SPAN] + [name for _, _, name, _ in TARGETS]
    for name in spans:
        metrics[f"{name}.calls"] = "count"
        metrics[f"{name}.s"] = "s"
        metrics[f"{name}.self_s"] = "s"
    for name in (
        "sim.batch.plan_tasks.tasks",
        "sim.batch.plan_tasks.trials",
        "sim.batch.plan_tasks.stacked",
        "sim.kernel.reference",
        "sim.kernel.columnar",
        "sim.kernel.vectorized",
        "sim.vectorized.run_stacked_cell.streams",
        "core.mt19937.seed_states.streams",
        "search.evaluations",
    ):
        metrics[name] = "count"
    # Derived from several spans by layer_metrics() and run.py.
    for name in (
        "sim.batch.stacked_frac",
        "core.mt19937.rng_share",
        "mp.worker_busy_frac",
        "trace_overhead",
    ):
        metrics[name] = "ratio"
    metrics["unattributed.s"] = metrics["mp.worker_busy.s"] = "s"
    metrics["cli.numpy_loaded"] = "flag"
    return metrics


# ------------------------------------------------------------------ recording


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Spans are kept in memory and written out by :meth:`write`; in a
    process forked after :meth:`install` they go straight to
    ``SPANS_DIR/worker-<pid>.jsonl`` instead.  Calls from threads other
    than the one that installed the tracer run unrecorded, so spans in
    one process always nest.
    """

    def __init__(self, spans_dir: Optional[str] = None) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._thread = threading.get_ident()
        self._dir = spans_dir
        self._sink: Optional[Any] = None
        self._pending: Dict[str, List[Tuple[str, str, Optional[Counter]]]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._hook: Optional[_ImportHook] = None
        self.installed = False
        #: Targets whose module loaded without the named attribute.
        self.missing: List[str] = []
        if spans_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    # ---------------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, None)

    def _open(self) -> Tuple[int, int]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(
        self,
        sid: int,
        parent: int,
        name: str,
        start: float,
        counts: Optional[Dict[str, float]],
    ) -> None:
        end = time.perf_counter()
        self._stack.pop()
        record = (sid, parent, name, start, end, counts)
        if self._sink is not None:
            self._sink.write(json.dumps(record) + "\n")
            self._sink.flush()
        else:
            self.spans.append(record)

    def _wrap(self, fn: Callable, name: str, counter: Optional[Counter]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, result)
                return result
            finally:
                tracer._close(sid, parent, name, start, counts)

        return wrapper

    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()
        path = os.path.join(str(self._dir), f"worker-{os.getpid()}.jsonl")
        self._sink = open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------- wrapping
    def install(self, targets=TARGETS) -> None:
        """Wrap every target, now or when its module finishes importing."""
        for module, attr, name, counter in targets:
            self._pending.setdefault(module, []).append((attr, name, counter))
        for module in [m for m in self._pending if m in sys.modules]:
            self._wrap_module(sys.modules[module])
        self._hook = _ImportHook(self)
        sys.meta_path.insert(0, self._hook)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute, aliases included."""
        if self._hook is not None and self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        self._hook = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._pending = {}
        self.installed = False

    def _wrap_module(self, module: Any, scope: Optional[List[Any]] = None) -> None:
        """Wrap ``module``'s targets and rebind their aliases in ``scope``
        (default: every loaded module)."""
        fresh: Dict[int, Tuple[Any, Any]] = {}
        for attr, name, counter in self._pending.pop(module.__name__, ()):
            *path, leaf = attr.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(leaf)
            if original is None:
                # A refactor removed the target: its metrics read 0 and
                # the harness reports the name instead of failing.
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            wrapper = self._wrap(original, name, counter)
            setattr(owner, leaf, wrapper)
            self._patches.append((owner, leaf, original))
            fresh[id(original)] = (original, wrapper)
        rebinds = []
        for other in list(sys.modules.values()) if scope is None else scope:
            namespace = getattr(other, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in namespace.items():
                hit = fresh.get(id(value))
                if hit is not None and hit[0] is value:
                    rebinds.append((other, key, value, hit[1]))
        for other, key, original, wrapper in rebinds:
            setattr(other, key, wrapper)
            self._patches.append((other, key, original))

    # ---------------------------------------------------------------- output
    def write(self, path: str, **meta: Any) -> None:
        """Write this process's spans plus ``meta`` as one JSON object."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "spans": self.spans}, handle)


class _ImportHook(importlib.abc.MetaPathFinder):
    """Wraps a target module's functions as soon as its import finishes."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._tracer._pending:
            return None
        for finder in sys.meta_path:
            find = getattr(finder, "find_spec", None)
            if finder is self or find is None:
                continue
            spec = find(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None and hasattr(spec.loader, "exec_module"):
            spec.loader = _WrappingLoader(spec.loader, self._tracer)
        return spec


class _WrappingLoader(importlib.abc.Loader):
    def __init__(self, loader: Any, tracer: Tracer) -> None:
        self._loader = loader
        self._tracer = tracer

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        before = set(sys.modules)
        self._loader.exec_module(module)
        with self._tracer.span(WRAP_SPAN):
            # Only a module imported while this one ran can hold an alias
            # of its functions: later importers get the wrappers.
            scope = [sys.modules[name] for name in set(sys.modules) - before]
            self._tracer._wrap_module(module, scope)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._loader, name)


# ----------------------------------------------------------------- arithmetic


class CommandTrace(NamedTuple):
    """Everything one traced command left behind."""

    #: Spawn-to-exit wall clock of the shim process, measured by run.py.
    wall: float
    numpy_loaded: bool
    main: List[Span]
    workers: List[List[Span]]
    #: Targets the program no longer defines (see :meth:`Tracer.install`).
    missing: List[str]


def read_command(spans_dir: str, wall: float) -> CommandTrace:
    """Load the spans one shim invocation wrote into ``spans_dir``."""
    main: Optional[Dict[str, Any]] = None
    workers: List[List[Span]] = []
    for name in sorted(os.listdir(spans_dir)):
        path = os.path.join(spans_dir, name)
        if name.startswith("main-"):
            with open(path, encoding="utf-8") as handle:
                main = json.load(handle)
        elif name.startswith("worker-"):
            with open(path, encoding="utf-8") as handle:
                workers.append([tuple(json.loads(line)) for line in handle if line.strip()])
    if main is None:
        raise ValueError(f"no coordinator spans in {spans_dir}")
    spans = [tuple(span) for span in main["spans"]]
    return CommandTrace(
        wall, bool(main["numpy_loaded"]), spans, workers, list(main["missing"])
    )


def _covered(start: float, end: float, children: List[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of child spans."""
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda span: span[3]):
        lo, hi = max(child[3], reach), min(child[4], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    return {
        span[0]: span[4] - span[3] - _covered(span[3], span[4], children.get(span[0], []))
        for span in spans
    }


def _accumulate(spans: List[Span], out: Dict[str, float]) -> None:
    """Add one process's ``.calls``, ``.s``, ``.self_s`` and counts to ``out``.

    ``.s`` counts a span only when no ancestor has the same name, so a
    nested or recursive call is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    for span in spans:
        sid, parent, name, start, end, counts = span
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[sid]
        outermost = True
        while parent in by_id:
            if by_id[parent][2] == name:
                outermost = False
                break
            parent = by_id[parent][1]
        if outermost:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start
        for key, value in (counts or {}).items():
            out[key] = out.get(key, 0.0) + value


def layer_metrics(commands: List[CommandTrace]) -> Dict[str, float]:
    """Per-layer metrics of one traced round (one or more commands).

    Span metrics sum coordinator and worker spans.  ``unattributed.s``
    is the shim's wall clock minus its two top-level spans: interpreter
    start and exit, installing the wrappers, and writing spans out.
    """
    out: Dict[str, float] = {name: 0.0 for name in known_metrics()}
    capacity = busy = 0.0
    for command in commands:
        _accumulate(command.main, out)
        for spans in command.workers:
            _accumulate(spans, out)
            busy += sum(span[4] - span[3] for span in spans if span[1] == 0)
        capacity += sum(
            (span[4] - span[3]) * (span[5] or {}).get("mp.Pool.map.processes", 0)
            for span in command.main
            if span[2] == "mp.Pool.map"
        )
        out["unattributed.s"] += command.wall - sum(
            span[4] - span[3] for span in command.main if span[1] == 0
        )
        out["cli.numpy_loaded"] = max(out["cli.numpy_loaded"], float(command.numpy_loaded))
    out["mp.worker_busy.s"] = busy
    out["mp.worker_busy_frac"] = busy / capacity if capacity else 0.0
    trials = out["sim.batch.plan_tasks.trials"]
    out["sim.batch.stacked_frac"] = out["sim.batch.plan_tasks.stacked"] / trials if trials else 0.0
    stacked = out["sim.vectorized.run_stacked_cell.s"]
    rng = out["core.mt19937.seed_states.s"] + out["core.mt19937.MTStreamBank.draws.s"]
    out["core.mt19937.rng_share"] = rng / stacked if stacked else 0.0
    return out


def reconcile(command: CommandTrace) -> float:
    """Top-level span time minus the sum of all coordinator self times.

    Zero (to rounding) exactly when the coordinator's spans nest, so the
    self times partition ``cli.import.s + cli.main.s`` and, with
    ``unattributed.s``, the whole wall clock.
    """
    top = sum(span[4] - span[3] for span in command.main if span[1] == 0)
    return top - sum(self_times(command.main).values())


def median_metrics(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over traced rounds."""
    names = sorted({name for metrics in rounds for name in metrics})
    return {name: statistics.median(m.get(name, 0.0) for m in rounds) for name in names}


# ---------------------------------------------------------------------- shim


def main(argv: Optional[List[str]] = None) -> int:
    """``traced.py SPANS_DIR ARGS...``: run ``repro ARGS...`` under the tracer."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: traced.py SPANS_DIR [repro arguments...]", file=sys.stderr)
        return 2
    spans_dir, args = argv[0], argv[1:]
    tracer = Tracer(spans_dir)
    with tracer.span(IMPORT_SPAN):
        cli = importlib.import_module("repro.cli")
    tracer.install()
    code = 1
    try:
        with tracer.span(MAIN_SPAN):
            code = cli.main(args)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        numpy_loaded = "numpy" in sys.modules
        tracer.write(
            os.path.join(spans_dir, f"main-{os.getpid()}.json"),
            code=code,
            numpy_loaded=numpy_loaded,
            missing=tracer.missing,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
