"""Unit tests for the parallel trial engine (repro.sim.batch)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import run_experiment
from repro.monitor.splitting import TailConfig, run_tail
from repro.search.baseline import evaluate_bundled
from repro.search.strategies import HuntConfig, run_hunt
from repro.sim.batch import (
    Executor,
    ScenarioMatrix,
    as_executor,
    legacy_trial_seeds,
    run_batch,
    run_trial,
)
from repro.sim.specs import (
    ADVERSARY_BUILDERS,
    INTEGER_PARAMS,
    NUMBER_PARAMS,
    AdversarySpec,
    CellKey,
    TrialSpec,
)


class TestAdversarySpec:
    def test_default_is_no_failures(self):
        spec = AdversarySpec()
        assert spec.key == "none"
        assert spec.build(7) is None

    def test_of_validates_name(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            AdversarySpec.of("byzantine")

    def test_params_are_sorted_and_shown_in_key(self):
        spec = AdversarySpec.of("random", rate=0.2, delivery="uniform")
        assert spec.params == (("delivery", "uniform"), ("rate", 0.2))
        assert spec.key == "random:delivery=uniform,rate=0.2"

    def test_label_overrides_key(self):
        spec = AdversarySpec.of("random", rate=0.05, label="random 5%")
        assert spec.key == "random 5%"

    def test_parse_literal_values(self):
        spec = AdversarySpec.parse("random:rate=0.2,delivery=split")
        assert dict(spec.params) == {"rate": 0.2, "delivery": "split"}
        adversary = spec.build(3)
        assert type(adversary).__name__ == "RandomCrashAdversary"

    def test_parse_plain_name(self):
        assert AdversarySpec.parse("sandwich").name == "sandwich"

    def test_parse_rejects_malformed_params(self):
        with pytest.raises(ConfigurationError, match="bad adversary parameter"):
            AdversarySpec.parse("random:rate")

    def test_build_rejects_unknown_params(self):
        spec = AdversarySpec.of("sandwich", not_a_param=1)
        with pytest.raises(ConfigurationError, match="bad parameters"):
            spec.build(0)

    def test_every_count_parameter_must_be_an_integer(self):
        import inspect

        for name, builder in ADVERSARY_BUILDERS.items():
            for param in list(inspect.signature(builder).parameters.values())[1:]:
                counts = param.annotation in ("int", "Optional[int]")
                assert counts == (param.name in INTEGER_PARAMS), (name, param.name)
                if counts:
                    for value in (2.5, True):
                        spec = AdversarySpec.of(name, **{param.name: value})
                        with pytest.raises(
                            ConfigurationError, match="must be an integer"
                        ):
                            spec.build(0)

    def test_every_rate_parameter_must_be_a_number(self):
        import inspect

        for name, builder in ADVERSARY_BUILDERS.items():
            for param in list(inspect.signature(builder).parameters.values())[1:]:
                rates = param.annotation == "float"
                assert rates == (param.name in NUMBER_PARAMS), (name, param.name)
                if rates:
                    for value in (True, "nan", None):
                        spec = AdversarySpec.of(name, **{param.name: value})
                        with pytest.raises(
                            ConfigurationError, match="must be a number"
                        ):
                            spec.build(0)

    def test_builders_seeded_per_trial(self):
        spec = AdversarySpec.of("random", rate=1.0, delivery="uniform")
        first = spec.build(1)
        second = spec.build(1)
        assert first is not second
        assert first.rng.random() == second.rng.random()


class TestScenarioMatrix:
    def test_expansion_covers_the_grid_in_order(self):
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves", "flood"], [4, 8], ["none", "sandwich"], trials=2
        )
        specs = matrix.expand()
        assert len(specs) == len(matrix) == 2 * 2 * 2 * 2
        assert specs[0].cell == CellKey("balls-into-leaves", 4, "none")
        # Trials of a cell are adjacent and seed-ascending.
        assert specs[0].seed < specs[1].seed
        assert specs[1].cell == specs[0].cell
        assert specs[-1].cell == CellKey("flood", 8, "sandwich")

    def test_legacy_seed_schedule_matches_historical_loops(self):
        matrix = ScenarioMatrix.build(["flood"], [4], trials=3, base_seed=9)
        assert [spec.seed for spec in matrix.expand()] == legacy_trial_seeds(9, 3)
        assert legacy_trial_seeds(9, 3) == [9 * 100_003 + t for t in range(3)]

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            ScenarioMatrix.build(["quantum"], [4])

    def test_rejects_empty_dimensions_and_bad_values(self):
        with pytest.raises(ConfigurationError):
            ScenarioMatrix.build([], [4])
        with pytest.raises(ConfigurationError):
            ScenarioMatrix.build(["flood"], [0])
        with pytest.raises(ConfigurationError):
            ScenarioMatrix.build(["flood"], [4], trials=0)


class TestCellKeys:
    """Specs stack only when every field but the seed (or, for hunt
    generations, the seed and the adversary) agrees."""

    #: A value other than the default for every field but the seed.
    OTHER = {
        "algorithm": "early-terminating",
        "n": 17,
        "adversary": AdversarySpec.of("random", rate=0.1),
        "halt_on_name": True,
        "crash_budget": 3,
        "check": False,
        "kernel": "columnar",
        "capture_errors": True,
        "monitor": "cheap",
        "trace": "cheap",
    }

    def test_every_non_seed_field_separates_cells(self):
        from repro.sim.batch import _cell_config, _mixed_cell_config

        base = TrialSpec(algorithm="balls-into-leaves", n=16, seed=0)
        names = {f.name for f in dataclasses.fields(TrialSpec)}
        assert set(self.OTHER) == names - {"seed"}
        assert _cell_config(dataclasses.replace(base, seed=5)) == _cell_config(base)
        for name, value in self.OTHER.items():
            other = dataclasses.replace(base, **{name: value})
            assert _cell_config(other) != _cell_config(base), name
            if name == "adversary":
                assert _mixed_cell_config(other) == _mixed_cell_config(base)
            else:
                assert _mixed_cell_config(other) != _mixed_cell_config(base), name


class TestRunTrial:
    def test_trial_result_carries_scalars_and_names(self):
        result = run_trial(TrialSpec("balls-into-leaves", 8, seed=5))
        assert result.rounds > 0
        assert result.failures == 0
        assert result.messages_sent > 0
        assert result.messages_delivered >= result.messages_sent
        names = [name for _, name in result.names]
        assert sorted(names) == list(range(8))

    def test_trial_is_deterministic(self):
        spec = TrialSpec("balls-into-leaves", 8, seed=5, adversary=AdversarySpec.of("random", rate=0.2))
        assert run_trial(spec) == run_trial(spec)


#: Each library entry point that maps through an executor, called with
#: none: it runs serially and leaves pool ownership to its caller.
WITHOUT_AN_EXECUTOR = {
    "run_batch": lambda: run_batch(
        ScenarioMatrix.build(["flood"], [4], trials=4)
    ),
    "run_tail": lambda: run_tail(
        TailConfig(n=16, trials=8, levels=(3, 5), chunk=2)
    ),
    "run_hunt": lambda: run_hunt(HuntConfig(n=8, budget=4, seed=1)),
    "evaluate_bundled": lambda: evaluate_bundled(
        HuntConfig(n=8, budget=4, seed=1), trials=1
    ),
    "run_experiment": lambda: run_experiment("EXP-T3", scale="smoke"),
}


class TestExecutors:
    def test_as_executor_coercions(self):
        assert as_executor(None) == Executor("serial", 1)
        assert as_executor(None, workers=1) == Executor("serial", 1)
        assert as_executor("serial", workers=4) == Executor("serial", 1)
        assert as_executor(None, workers=4) == Executor("process", 4)
        assert as_executor("process", workers=1) == Executor("process", 1)
        with pytest.raises(ConfigurationError, match="unknown executor"):
            as_executor("gpu")

    def test_worker_default_and_validation(self):
        assert as_executor("process").workers >= 1
        for name in (None, "serial", "process"):
            for workers in (0, -3):
                with pytest.raises(ConfigurationError, match="workers must be >= 1"):
                    as_executor(name, workers=workers)

    def test_only_the_batch_engine_imports_multiprocessing(self):
        # One executor seam: every worker process starts in Executor.map.
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        importers = set()
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "multiprocessing" for m in modules):
                    importers.add(path.relative_to(root.parent).as_posix())
        assert importers == {"repro/sim/batch.py"}

    def test_a_passed_executor_stays_open_across_calls(self, pool_starts):
        matrix = ScenarioMatrix.build(["flood"], [4], trials=4)
        with Executor("process", 2) as executor:
            first = run_batch(matrix, executor=executor)
            second = run_batch(matrix, executor=executor)
            assert len(pool_starts) == 1
            assert pool_starts[0].map(abs, [-1, -2]) == [1, 2]
        assert first.trials == second.trials == run_batch(matrix).trials
        with pytest.raises(ValueError, match="not running"):
            pool_starts[0].map(abs, [1])
        executor.close()  # closing twice is safe

    @pytest.mark.parametrize("entry", sorted(WITHOUT_AN_EXECUTOR))
    def test_an_entry_point_given_no_executor_starts_no_pool(
        self, entry, pool_starts
    ):
        WITHOUT_AN_EXECUTOR[entry]()
        assert pool_starts == []

    def test_single_worker_falls_back_to_serial(self, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a single worker must not start a pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        specs = ScenarioMatrix.build(["flood"], [4], trials=2).expand()
        assert Executor("process", 1).map(run_trial, specs) == [
            run_trial(spec) for spec in specs
        ]


class TestBatchResult:
    @pytest.fixture(scope="class")
    def batch(self):
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves", "flood"], [4, 8], ["none", "sandwich"], trials=3
        )
        return run_batch(matrix)

    def test_cells_preserve_grid_order(self, batch):
        keys = list(batch.cells())
        assert keys[0] == CellKey("balls-into-leaves", 4, "none")
        assert len(keys) == 8
        assert all(len(cell) == 3 for cell in batch.cells().values())

    def test_cell_lookup_and_stats(self, batch):
        cell = batch.cell("flood", 8, "sandwich")
        assert len(cell) == 3
        stats = batch.stats("flood", 8, "sandwich")
        assert stats.count == 3
        assert stats.rounds.mean == sum(r.rounds for r in cell) / 3

    def test_unknown_cell_raises(self, batch):
        with pytest.raises(ConfigurationError, match="no trials"):
            batch.cell("flood", 1024)

    def test_to_table_has_one_row_per_cell(self, batch):
        table = batch.to_table("demo")
        assert len(table.rows) == 8
        rendered = table.render()
        assert "balls-into-leaves" in rendered
        assert "sandwich" in rendered
