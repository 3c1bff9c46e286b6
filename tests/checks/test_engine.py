"""Engine behavior: suppression comments, classification, findings."""

import pytest

from repro.checks import check_paths, check_source, get_rules
from repro.checks.context import build_context, parse_suppressions
from repro.checks.findings import Finding
from repro.errors import ConfigurationError

BAD_RNG = "import random\n"


class TestSuppression:
    def test_allow_comment_silences_the_named_rule(self):
        source = "import random  # repro: allow[REP001] fixture generator only\n"
        report = check_source(source, module="repro.demo", rules=["REP001"])
        assert report.findings == ()
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule_id == "REP001"
        assert report.exit_code == 0

    def test_allow_comment_is_rule_specific(self):
        source = "import random  # repro: allow[REP013] wrong rule id\n"
        report = check_source(source, module="repro.demo", rules=["REP001"])
        assert len(report.findings) == 1

    def test_star_allows_everything(self):
        source = "import random  # repro: allow[*] anything goes here\n"
        report = check_source(source, module="repro.demo", rules=["REP001"])
        assert report.findings == ()

    def test_comma_separated_ids(self):
        table = parse_suppressions(
            "x = 1  # repro: allow[REP001, REP008] two rules\n"
        )
        assert table == {1: frozenset({"REP001", "REP008"})}

    def test_suppression_must_be_on_the_finding_line(self):
        source = "# repro: allow[REP001] wrong line\nimport random\n"
        report = check_source(source, module="repro.demo", rules=["REP001"])
        assert len(report.findings) == 1


class TestClassification:
    def test_test_files_skip_domain_rules(self):
        report = check_source(BAD_RNG, module="repro.demo", is_test=True)
        assert report.findings == ()

    def test_module_resolution_from_repo_layout(self):
        ctx = build_context("src/repro/fl/trainer.py")
        assert ctx.module == "repro.fl.trainer"
        assert ctx.in_repro
        assert not ctx.is_test

    def test_tests_classified_by_directory(self):
        ctx = build_context("tests/checks/test_engine.py")
        assert ctx.is_test

    def test_fixture_files_under_tests_are_skipped_by_path_checks(self):
        report = check_paths(["tests/checks/fixtures"])
        assert report.findings == ()
        assert report.files_checked > 0


class TestFindings:
    def test_reports_sort_by_location(self):
        source = "import random\ndef f(observer):\n    observer.span('x')\n"
        report = check_source(
            source, module="repro.demo", rules=["REP013", "REP001"]
        )
        assert [(f.line, f.rule_id) for f in report.findings] == [
            (1, "REP001"),
            (3, "REP013"),
        ]

    def test_syntax_error_becomes_rep000(self):
        report = check_source("def broken(:\n")
        assert len(report.findings) == 1
        assert report.findings[0].rule_id == "REP000"
        assert report.exit_code == 1

    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ConfigurationError):
            Finding(
                path="x.py",
                line=1,
                col=0,
                rule_id="REP001",
                message="m",
                severity="fatal",
            )

    def test_render_and_dict_round_trip(self):
        finding = Finding(
            path="a.py", line=3, col=7, rule_id="REP008", message="boom"
        )
        assert finding.render() == "a.py:3:7: REP008 boom"
        assert finding.to_dict()["rule"] == "REP008"

    def test_report_json_document_shape(self):
        report = check_source(BAD_RNG, module="repro.demo", rules=["REP001"])
        document = report.to_dict()
        assert document["version"] == 1
        assert document["files_checked"] == 1
        assert document["findings"][0]["rule"] == "REP001"


class TestRuleRegistry:
    def test_all_shipped_rules(self):
        assert [r.rule_id for r in get_rules()] == [
            "REP001",
            "REP008",
            "REP009",
            "REP011",
            "REP012",
            "REP013",
        ]

    def test_dataflow_rules_declare_needs_index(self):
        by_id = {r.rule_id: r for r in get_rules()}
        for rule_id in ("REP008", "REP009", "REP011"):
            assert by_id[rule_id].needs_index
        for rule_id in ("REP001", "REP012", "REP013"):
            assert not by_id[rule_id].needs_index

    def test_suppression_hygiene_is_not_suppressible(self):
        by_id = {r.rule_id: r for r in get_rules()}
        assert not by_id["REP012"].suppressible
        assert by_id["REP008"].suppressible

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ConfigurationError):
            get_rules(["REP999"])

    @pytest.mark.parametrize(
        "rule_id", ["REP003", "REP004", "REP005", "REP006", "REP007", "REP010"]
    )
    def test_deleted_rule_ids_are_unknown(self, rule_id):
        with pytest.raises(ConfigurationError, match=rule_id):
            get_rules([rule_id])

    def test_rule_ids_case_insensitive(self):
        assert [r.rule_id for r in get_rules(["rep001"])] == ["REP001"]
