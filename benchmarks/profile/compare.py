"""Compare profile results of two commits.

    python benchmarks/profile/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

A is the parent, B the change.  Each file is one ``run.py --out`` result
or a baseline holding several results under ``"runs"``.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles and a verdict:

* ``unresolved``: the run-to-run spread exceeds the metric's bound and
  not every B run beats every A run (which counts only with 10 runs or
  more on each side);
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: with 10 or more pairs (A[i], B[i]), B wins at least 9 in 10
  of them, ties counting for neither, and the medians differ by more
  than A's quartile distance; with fewer pairs, B is better by more than
  the bound;
* ``same``: otherwise.

The spread is each side's quartile distance over its median, the larger
of the two, when both sides have two runs or more.  With a single run on
a side it is the ``spread`` each run estimated from its own samples.
``failed_frac`` has an absolute bound of 0 and is judged on each side's
worst run: B is worse when any B run failed a larger share of its rounds
than the worst A run.  A per-layer table of the traced medians follows.
The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from run import BENCHMARK, quartiles

#: Pairs from which the win-rate rule applies, and the rate it needs.
MIN_PAIRS = 10
WIN_RATE = 0.9


def load_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    runs: List[Dict[str, Any]] = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        runs.extend(data["runs"] if "runs" in data else [data])
    return runs


def spread_of(a: Sequence[float], b: Sequence[float], estimated: Sequence[float]) -> float:
    """The run-to-run spread a verdict allows for (see the module doc)."""
    if len(a) < 2 or len(b) < 2:
        return max(estimated, default=0.0)
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    return max((a3 - a1) / abs(a_med or 1e-12), (b3 - b1) / abs(b_med or 1e-12))


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    *,
    bound: float,
    better: str,
    estimated: Sequence[float] = (),
) -> str:
    """The verdict on B against A for one metric (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    a1, a_med, a3 = quartiles(a)
    b_med = quartiles(b)[1]
    loss = sign * (b_med - a_med) / abs(a_med or 1e-12)
    if spread_of(a, b, estimated) > bound:
        enough = min(len(a), len(b)) >= MIN_PAIRS
        dominates = enough and max(sign * y for y in b) < min(sign * x for x in a)
        return "better" if dominates else "unresolved"
    if loss > bound:
        return "worse"
    pairs = list(zip(a, b))
    if len(pairs) >= MIN_PAIRS:
        wins = sum(sign * (y - x) < 0 for x, y in pairs)
        if wins >= WIN_RATE * len(pairs) and -loss * abs(a_med) > a3 - a1:
            return "better"
        return "same"
    return "better" if -loss > bound else "same"


def compare(
    a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]], bench: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per workload and end-to-end metric, plus ``failed_frac``."""
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        a_side = [run["workloads"][workload] for run in a_runs if workload in run["workloads"]]
        b_side = [run["workloads"][workload] for run in b_runs if workload in run["workloads"]]
        if not a_side or not b_side:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [w["metrics"][name]["value"] for w in a_side if "metrics" in w]
            b = [w["metrics"][name]["value"] for w in b_side if "metrics" in w]
            if not a or not b:
                continue
            estimated = [w["metrics"][name]["spread"] for w in a_side + b_side if "metrics" in w]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "spread": spread_of(a, b, estimated),
                    "bound": metric["bound"],
                    "verdict": verdict(
                        a, b, bound=metric["bound"], better=metric["better"], estimated=estimated
                    ),
                }
            )
        a = [w["failed_frac"] for w in a_side]
        b = [w["failed_frac"] for w in b_side]
        # The worst run decides: one failing B run is a failure, even
        # when most B runs pass and the median reads 0.
        a_max, b_max = max(a), max(b)
        rows.append(
            {
                "workload": workload,
                "metric": "failed_frac",
                "a": quartiles(a),
                "b": quartiles(b),
                "spread": 0.0,
                "bound": 0.0,
                "verdict": "worse" if b_max > a_max else "better" if b_max < a_max else "same",
            }
        )
    return rows


def layer_deltas(
    a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]], bench: Dict[str, Any]
) -> List[Tuple[str, str, float, float]]:
    """(workload, metric, A median, B median) for every nonzero per-layer metric."""
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        a_side = [run["workloads"].get(workload, {}).get("layers") for run in a_runs]
        b_side = [run["workloads"].get(workload, {}).get("layers") for run in b_runs]
        a_side, b_side = [x for x in a_side if x], [x for x in b_side if x]
        if not a_side or not b_side:
            continue
        for metric in bench["per_layer"]:
            name = metric["name"]
            a_med = statistics.median(layers.get(name, 0.0) for layers in a_side)
            b_med = statistics.median(layers.get(name, 0.0) for layers in b_side)
            if a_med or b_med:
                rows.append((workload, name, a_med, b_med))
    return rows


def _fmt(stats: Tuple[float, float, float]) -> str:
    q1, med, q3 = stats
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Sequence[str]) -> int:
    argv = list(argv)
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_runs, b_runs = load_runs(argv[:split]), load_runs(argv[split + 1 :])
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(a_runs, b_runs, bench)
    print(f"A: {len(a_runs)} run(s)  B: {len(b_runs)} run(s)")
    print(
        f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'change':>8} {'spread':>6} {'bound':>6}  verdict"
    )
    for row in rows:
        a_med, b_med = row["a"][1], row["b"][1]
        change = f"{(b_med - a_med) / a_med:+.1%}" if a_med else f"{b_med - a_med:+.3g}"
        print(
            f"{row['workload']:<13} {row['metric']:<12} {_fmt(row['a']):<30} "
            f"{_fmt(row['b']):<30} {change:>8} {row['spread']:>6.2f} "
            f"{row['bound']:>6.2f}  {row['verdict']}"
        )
    deltas = layer_deltas(a_runs, b_runs, bench)
    if deltas:
        print("\nper layer (medians of the traced rounds):")
        for workload, name, a_med, b_med in deltas:
            change = f"{(b_med - a_med) / a_med:+.1%}" if a_med else "new"
            print(f"{workload:<13} {name:<42} {a_med:>12.5g} {b_med:>12.5g} {change:>8}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
