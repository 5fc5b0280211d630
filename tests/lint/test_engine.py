"""Engine mechanics: suppressions, alias resolution, file discovery."""

from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.engine import LintConfigError, iter_python_files


def _rules(violations):
    return [v.rule for v in violations]


def test_same_line_suppression_waives_the_finding():
    src = "import time\nt = time.time()  # repro: lint-ok[D102] telemetry only\n"
    assert lint_source(src, path="x.py") == []


def test_comment_line_above_covers_the_next_line():
    src = (
        "import time\n"
        "# repro: lint-ok[D102] telemetry only\n"
        "t = time.time()\n"
    )
    assert lint_source(src, path="x.py") == []


def test_comment_line_does_not_cover_two_lines_down():
    src = (
        "import time\n"
        "# repro: lint-ok[D102] telemetry only\n"
        "pass\n"
        "t = time.time()\n"
    )
    # The waiver covers lines 2-3 only: the D102 on line 4 survives and
    # the waiver itself becomes an unused S002.
    assert sorted(_rules(lint_source(src, path="x.py"))) == ["D102", "S002"]


def test_multi_rule_waiver_covers_both_findings():
    src = (
        "import time, random\n"
        "t = (time.time(), random.random())"
        "  # repro: lint-ok[D101, D102] fixture of both hazards\n"
    )
    assert lint_source(src, path="x.py") == []


def test_unjustified_waiver_reports_s001_but_still_waives():
    src = "x = id(object())  # repro: lint-ok[D104]\n"
    violations = lint_source(src, path="x.py")
    assert _rules(violations) == ["S001"]


def test_unknown_rule_waiver_reports_s002():
    src = "# repro: lint-ok[Z999] no such rule\nx = 1\n"
    assert _rules(lint_source(src, path="x.py")) == ["S002"]


def test_import_alias_resolution_reaches_numpy_random():
    src = "import numpy as np\nx = np.random.standard_normal(4)\n"
    assert _rules(lint_source(src, path="x.py")) == ["D101"]


def test_from_import_resolution_reaches_datetime_now():
    src = "from datetime import datetime\nx = datetime.now()\n"
    assert _rules(lint_source(src, path="x.py")) == ["D102"]


def test_syntax_error_becomes_e999():
    violations = lint_source("def broken(:\n", path="x.py")
    assert _rules(violations) == ["E999"]


def test_violation_render_is_path_line_rule():
    (violation,) = lint_source("x = id(x)\n", path="pkg/mod.py")
    assert violation.render().startswith("pkg/mod.py:1: D104 ")


def test_iter_python_files_skips_pycache_and_sorts(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.pyc.py").write_text("x = 1\n")
    names = [p.name for p in iter_python_files([str(tmp_path)])]
    assert names == ["a.py", "b.py"]


def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(LintConfigError):
        list(iter_python_files([str(tmp_path / "nope")]))


def test_lint_paths_on_a_directory(tmp_path):
    (tmp_path / "dirty.py").write_text("import time\nx = time.time()\n")
    (tmp_path / "clean.py").write_text("x = 1\n")
    violations = lint_paths([str(tmp_path)])
    assert [(Path(v.path).name, v.rule) for v in violations] == [("dirty.py", "D102")]


def test_schema_drift_follows_an_imported_spec_class(tmp_path):
    # TrialSpec in one module, its serializer in another: K203 checks the
    # imported class's fields where they are serialized.
    package = tmp_path / "proj"
    package.mkdir()
    (package / "specs.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class TrialSpec:\n"
        "    algorithm: str\n"
        "    flux_capacitance: float\n"
    )
    (package / "batch.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "from proj.specs import TrialSpec\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class TrialResult:\n"
        "    spec: TrialSpec  # repro: lint-ok[K203] flattened below\n"
        "    rounds: int\n"
        "\n"
        "    def to_row(self):\n"
        "        return {'algorithm': self.spec.algorithm, 'rounds': self.rounds}\n"
    )
    violations = lint_paths([str(tmp_path)])
    assert [(Path(v.path).name, v.line, v.rule) for v in violations] == [
        ("batch.py", 3, "K203")
    ]
    assert "TrialSpec.flux_capacitance" in violations[0].message
    assert "specs.py:7" in violations[0].message
