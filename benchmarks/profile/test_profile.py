"""Tier-1 tests of the profile harness: span arithmetic, wrapper
install/uninstall, a ``--smoke`` run, and the comparator's verdicts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import traced  # noqa: E402
from repro.core.mt19937 import HAVE_NUMPY  # noqa: E402

BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------- span arithmetic


def _command(main, workers=(), wall=10.0):
    return traced.CommandTrace(wall, True, list(main), [list(w) for w in workers], [])


def test_self_time_unattributed_and_worker_spans():
    main = [
        (1, 0, "cli.import", 0.0, 1.0, None),
        (2, 0, "cli.main", 1.0, 8.0, None),
        (3, 2, "outer", 2.0, 6.0, {"sim.kernel.columnar": 1}),
        (4, 3, "inner", 2.5, 3.0, None),
        # A nested call of the same layer: counted in .calls, not twice in .s.
        (5, 3, "outer", 4.0, 5.0, {"sim.kernel.columnar": 1}),
        (6, 2, "mp.Pool.map", 6.0, 7.0, {"mp.Pool.map.processes": 2}),
    ]
    worker = [
        (10, 0, "monitor.splitting.run_tail_chunk", 6.1, 6.9, None),
        (11, 10, "core.vectorized.engine.run", 6.2, 6.8, None),
    ]
    command = _command(main, [worker])
    metrics = traced.layer_metrics([command])
    assert metrics["cli.main.self_s"] == pytest.approx(7.0 - 4.0 - 1.0)
    assert metrics["outer.self_s"] == pytest.approx((4.0 - 0.5 - 1.0) + 1.0)
    assert metrics["outer.s"] == pytest.approx(4.0)
    assert metrics["outer.calls"] == 2
    assert metrics["sim.kernel.columnar"] == 2
    assert metrics["unattributed.s"] == pytest.approx(10.0 - 1.0 - 7.0)
    # Worker spans add to the layer sums but not to coordinator self time.
    assert metrics["core.vectorized.engine.run.s"] == pytest.approx(0.6)
    assert metrics["mp.Pool.map.self_s"] == pytest.approx(1.0)
    assert metrics["mp.worker_busy.s"] == pytest.approx(0.8)
    assert metrics["mp.worker_busy_frac"] == pytest.approx(0.8 / (2 * 1.0))
    assert traced.reconcile(command) == pytest.approx(0.0, abs=1e-12)


def test_self_time_of_overlapping_children_counts_their_union():
    spans = [
        (1, 0, "a", 0.0, 10.0, None),
        (2, 1, "b", 1.0, 4.0, None),
        (3, 1, "c", 3.0, 5.0, None),
    ]
    assert traced.self_times(spans)[1] == pytest.approx(10.0 - 4.0)
    # Overlapping siblings double-count, which reconcile() exposes.
    assert traced.reconcile(_command(spans)) != pytest.approx(0.0)


def test_metrics_of_several_commands_add_up():
    spans = [(1, 0, "cli.import", 0.0, 1.0, None), (2, 0, "cli.main", 1.0, 3.0, None)]
    one = _command(spans, wall=4.0)
    metrics = traced.layer_metrics([one, one])
    assert metrics["cli.main.s"] == pytest.approx(4.0)
    assert metrics["unattributed.s"] == pytest.approx(2.0)
    assert metrics["cli.numpy_loaded"] == 1.0


# -------------------------------------------------------------- the wrappers


@pytest.fixture
def fake_layer(monkeypatch, tmp_path):
    layer = types.ModuleType("fake_layer")

    def work(x):
        return x * 2

    class Engine:
        def run(self):
            return "ran"

    layer.work, layer.Engine = work, Engine
    alias = types.ModuleType("fake_alias")
    alias.work = work
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    monkeypatch.setitem(sys.modules, "fake_alias", alias)
    (tmp_path / "fake_late.py").write_text("def later():\n    return 7\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield layer, alias, work, Engine.run
    sys.modules.pop("fake_late", None)


def test_install_rebinds_every_alias_and_uninstall_restores_them(fake_layer):
    layer, alias, work, run = fake_layer
    tracer = traced.Tracer()
    tracer.install(
        [
            ("fake_layer", "work", "fake.work", lambda args, result: {"fake.items": args[0]}),
            ("fake_layer", "Engine.run", "fake.run", None),
            ("fake_layer", "gone", "fake.gone", None),
            ("fake_late", "later", "fake.later", None),
        ]
    )
    try:
        assert layer.work is not work and alias.work is layer.work
        assert layer.Engine.run is not run
        assert alias.work(3) == 6 and layer.Engine().run() == "ran"
        # A target imported after install is wrapped as its import ends.
        late = __import__("fake_late")
        assert hasattr(late.later, "__wrapped__") and late.later() == 7
    finally:
        tracer.uninstall()
    assert layer.work is work and alias.work is work
    assert layer.Engine.run is run
    assert not hasattr(late.later, "__wrapped__")
    names = [span[2] for span in tracer.spans]
    assert names == ["fake.work", "fake.run", "trace.wrap", "fake.later"]
    assert tracer.spans[0][5] == {"fake.items": 3}
    assert tracer.missing == ["fake_layer.gone"]


# --------------------------------------------------------------- smoke run


def test_smoke_run_emits_every_metric_and_traced_digests_match(tmp_path):
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    # Nothing but the requested output lands in the working directory.
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in BENCH["workloads"])
    for name, result in results.items():
        for metric in BENCH["end_to_end"]:
            emitted = summary["metrics"][f"{name}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"] and emitted["value"] > 0
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in BENCH["per_layer"]:
            assert summary["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
        assert result["digests"] == result["traced_digests"] != {}
        assert result["layers"]["cli.import.s"] > 0
    workers = results["tail"]["worker_layers"]
    assert workers["monitor.splitting.run_tail_chunk.s"] > 0
    # Without NumPy, tail resolves to the columnar kernel and never runs
    # the vectorized engine.
    if HAVE_NUMPY:
        assert workers["core.vectorized.engine.run.s"] > 0


# -------------------------------------------------------------- comparator


def test_comparator_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, steady, bound=0.1, better="lower") == "same"
    slower = [x * 1.3 for x in steady]
    assert compare.verdict(steady, slower, bound=0.1, better="lower") == "worse"
    assert compare.verdict(steady, slower, bound=0.1, better="higher") == "better"
    # Ten pairs, B wins 9: a gain beyond A's quartiles, though inside the bound.
    faster = [x * 0.95 for x in steady[:9]] + [steady[9] * 1.01]
    assert compare.verdict(steady, faster, bound=0.1, better="lower") == "better"
    noisy = [0.6, 1.4, 0.8, 1.2, 1.0]
    shifted = [x * 1.05 for x in noisy]
    assert compare.verdict(noisy, shifted, bound=0.1, better="lower") == "unresolved"
    # Single runs: the runs' own spread estimates decide resolvability.
    def single(a, b, estimated):
        return compare.verdict([a], [b], bound=0.1, better="lower", estimated=[estimated])

    assert single(1.0, 1.5, 0.02) == "worse"
    assert single(1.0, 1.5, 0.3) == "unresolved"
    # One run beating one run is no dominance; ten beating ten is.
    assert single(1.0, 0.5, 0.3) == "unresolved"
    wide = [1.0, 1.5, 2.0, 1.2, 1.8, 1.1, 1.9, 1.4, 1.6, 1.3]
    assert compare.verdict(wide, [x * 0.45 for x in wide], bound=0.1, better="lower") == "better"


def test_compare_reports_failed_frac_with_a_zero_bound():
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s.p50", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }

    def run(wall, failed_frac):
        result = {"metrics": {"wall_s.p50": {"value": wall, "spread": 0.01}}}
        return {"workloads": {"w": dict(result, failed_frac=failed_frac)}}

    rows = compare.compare([run(1.0, 0.0)], [run(1.0, 0.05)], bench)
    assert [(row["metric"], row["verdict"]) for row in rows] == [
        ("wall_s.p50", "same"),
        ("failed_frac", "worse"),
    ]
    # One failing B run in three is worse, though B's median reads 0.
    passing = [run(1.0, 0.0) for _ in range(3)]
    minority = [run(1.0, 0.0), run(1.0, 0.0), run(1.0, 0.05)]
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(passing, minority, bench)}
    assert verdicts["failed_frac"] == "worse"
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(minority, passing, bench)}
    assert verdicts["failed_frac"] == "better"
