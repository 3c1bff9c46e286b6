"""CLI meta-tests: the shipped tree is clean, bad fixtures fail."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.checks.cli import build_parser, main
from repro.checks.rules import ALL_RULES

REPO_ROOT = Path(__file__).parents[2]
SRC_DIR = REPO_ROOT / "src"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return subprocess.run(
        [sys.executable, "-m", "repro.checks", *args],
        capture_output=True,
        text=True,
        cwd=str(cwd or REPO_ROOT),
        env=env,
    )


class TestShippedTree:
    def test_src_repro_is_clean(self):
        result = run_cli("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_full_ci_path_set_is_clean(self):
        result = run_cli(
            "src", "tests", "benchmarks", "examples", "--format", "json"
        )
        assert result.returncode == 0, result.stdout + result.stderr
        document = json.loads(result.stdout)
        assert document["findings"] == []
        # The one justified exception: nn/conv.py's same-step im2col cache.
        assert [
            (Path(f["path"]).name, f["rule"]) for f in document["suppressed"]
        ] == [("conv.py", "REP008")]


class TestBadFixture:
    def test_import_random_fails_with_rep001(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text("import random\n", encoding="utf-8")
        result = run_cli(str(snippet))
        assert result.returncode == 1
        assert "REP001" in result.stdout

    def test_json_report_names_the_rule(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text("import random\n", encoding="utf-8")
        result = run_cli(str(snippet), "--format", "json")
        assert result.returncode == 1
        document = json.loads(result.stdout)
        assert [f["rule"] for f in document["findings"]] == ["REP001"]

    def test_output_file(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text("import random\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        result = run_cli(
            str(snippet), "--format", "json", "--output", str(report_path)
        )
        assert result.returncode == 1
        document = json.loads(report_path.read_text(encoding="utf-8"))
        assert document["findings"]


class TestCliInterface:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line[:1] != " "]
        assert listed == [
            "REP001", "REP008", "REP009", "REP011", "REP012", "REP013"
        ]

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--rules", "REP999", "src/repro/rng.py"]) == 2

    def test_rules_filter_in_process(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text("import random\n")
        assert main(["--rules", "REP013", str(snippet)]) == 0
        assert main(["--rules", "REP001", str(snippet)]) == 1

    def test_help_documents_exit_codes(self):
        result = run_cli("--help")
        assert result.returncode == 0
        help_text = result.stdout
        assert "exit codes" in help_text
        assert "0 = no error-severity findings" in help_text
        assert "2 = usage or I/O error" in help_text

    def test_help_names_every_shipped_rule(self):
        description = build_parser().description
        for rule_id in ALL_RULES:
            assert f"({rule_id})" in description
        assert set(re.findall(r"REP\d{3}", description)) == set(ALL_RULES)


class TestGithubFormat:
    def test_findings_become_workflow_commands(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text("import random\n", encoding="utf-8")
        result = run_cli(str(snippet), "--format", "github")
        assert result.returncode == 1
        line = result.stdout.splitlines()[0]
        assert line.startswith("::error file=")
        assert f"file={snippet}" in line
        assert "line=1" in line
        assert "title=REP001" in line

    def test_clean_tree_emits_only_the_summary(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text("x = 1\n", encoding="utf-8")
        result = run_cli(str(snippet), "--format", "github")
        assert result.returncode == 0
        assert "::error" not in result.stdout


class TestRemovedFlags:
    def test_cache_flag_is_a_usage_error(self, tmp_path):
        snippet = tmp_path / "x.py"
        snippet.write_text("x = 1\n", encoding="utf-8")
        result = run_cli("--cache", str(snippet))
        assert result.returncode == 2
        assert "--cache" in result.stderr
