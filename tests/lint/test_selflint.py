"""The repo must lint clean, and the CLI verb must honor its exit codes."""

import json
from pathlib import Path

from repro.cli import main
from repro.lint import lint_paths

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


class TestSelfLint:
    def test_src_tree_has_no_violations(self):
        violations = lint_paths([str(SRC)])
        rendered = "\n".join(v.render() for v in violations)
        assert violations == [], f"repo does not self-lint:\n{rendered}"

    def test_cli_lint_src_exits_clean(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out


class TestLintCli:
    def test_violations_exit_1_with_locations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nx = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:2: D102" in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = id(x)\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["D104"]

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nx = (time.time(), id(x))\n")
        assert main(["lint", str(tmp_path), "--select", "D104"]) == 1
        out = capsys.readouterr().out
        assert "D104" in out
        assert "D102" not in out

    def test_select_unknown_rule_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "D999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rules_catalogue_lists_every_family(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D101", "K201", "S001", "S002"):
            assert rule_id in out

    def test_out_file(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = hash(object())\n")
        report = tmp_path / "report.txt"
        assert main(["lint", str(tmp_path), "--out", str(report)]) == 1
        capsys.readouterr()
        assert "D104" in report.read_text()
