"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.fl.history import TrainingHistory


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_full_participation_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "full"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'full'" in capsys.readouterr().err

    def test_common_flags(self):
        args = build_parser().parse_args(
            ["run", "helcfl", "--quick", "--seed", "3", "--rounds", "5",
             "--noniid"]
        )
        assert args.strategy == "helcfl"
        assert args.quick and args.noniid
        assert args.seed == 3 and args.rounds == 5
        assert args.backend == "serial" and args.workers is None

    def test_backend_flags(self):
        args = build_parser().parse_args(
            ["run", "helcfl", "--quick", "--backend", "thread",
             "--workers", "4"]
        )
        assert args.backend == "thread" and args.workers == 4

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "helcfl", "--backend", "gpu"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--trace", "x"],
            ["report", "--quick", "--rounds", "1", "--faults", "p"],
            ["fig3", "--quick", "--rounds", "1", "--faults", "p"],
            ["fig3", "--quick", "--rounds", "1", "--round-deadline", "9"],
            *(
                ["report", "--quick", "--rounds", "1", *flag]
                for flag in (["--noniid"], ["--backend", "thread"],
                             ["--workers", "2"], ["--trace", "x"],
                             ["--no-spans"], ["--round-deadline", "9"])
            ),
            *(
                ["info", *flag]
                for flag in (["--output", "x"], ["--backend", "thread"],
                             ["--workers", "2"], ["--no-spans"],
                             ["--log-level", "info"], ["--faults", "p"],
                             ["--round-deadline", "9"])
            ),
        ],
    )
    def test_commands_reject_flags_they_do_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_help_says_output_is_the_text_report(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--output OUTPUT also write the text report to this path" in out
        assert "JSON" not in out


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "num_users" in out and "HELCFL" in out

    def test_run_quick(self, capsys):
        code = main(["run", "helcfl", "--quick", "--rounds", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out
        assert "training energy" in out

    def test_run_noniid(self, capsys):
        assert main(["run", "classic", "--quick", "--rounds", "3",
                     "--noniid"]) == 0
        assert "Classic FL" in capsys.readouterr().out

    def test_run_thread_backend_matches_serial(self, capsys):
        assert main(["run", "helcfl", "--quick", "--rounds", "4"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "helcfl", "--quick", "--rounds", "4",
                     "--backend", "thread", "--workers", "2"]) == 0
        thread_out = capsys.readouterr().out
        assert "backend=thread" in thread_out
        pick = lambda text: [
            line for line in text.splitlines() if "accuracy" in line
        ]
        assert pick(serial_out) == pick(thread_out)

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--quick", "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "HELCFL" in out

    def test_table1_quick(self, capsys):
        assert main(["table1", "--quick", "--rounds", "6"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig3_quick(self, capsys):
        assert main(["fig3", "--quick", "--rounds", "6"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "DVFS" in out

    def test_run_with_output(self, capsys, tmp_path):
        path = tmp_path / "history.json"
        assert main(
            ["run", "helcfl", "--quick", "--rounds", "3", "--output",
             str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.history"
        assert len(TrainingHistory.from_dict(document["payload"])) == 3

    def test_fig2_with_output(self, capsys, tmp_path):
        path = tmp_path / "fig2.json"
        assert main(
            ["fig2", "--quick", "--rounds", "3", "--output", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.fig2"
        assert "helcfl" in document["payload"]["histories"]


class TestTraceAnalyticsCommands:
    def make_trace(self, tmp_path, name="t.jsonl", extra=()):
        path = tmp_path / name
        args = ["run", "helcfl", "--quick", "--rounds", "3",
                "--trace", str(path), *extra]
        assert main(args) == 0
        return path

    def test_traced_run_reloads_and_redumps_every_line(self, tmp_path):
        """Typed load then dump gives back the exact bytes the sink wrote."""
        import json

        from repro.obs.analysis import event_from_payload

        path = tmp_path / "t.jsonl"
        assert main(["run", "helcfl", "--quick", "--rounds", "5",
                     "--trace", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        kinds = set()
        for line in lines:
            event = event_from_payload(json.loads(line))
            assert json.dumps(event.to_dict()) + "\n" == line
            kinds.add(event.kind)
        assert {"selection", "device_round", "timeline", "span_start",
                "worker_resource", "run_stop"} <= kinds

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("trace-report",
             {"--format", "--output", "--top-devices", "--run"}),
            ("trace-compare",
             {"--strict", "--energy-threshold", "--time-threshold",
              "--accuracy-threshold", "--output", "--run"}),
        ],
    )
    def test_help_lists_the_flags_declared_once(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(flag in out for flag in flags)
        assert "0.02" in out or command == "trace-report"

    def test_trace_report_renders_table(self, capsys, tmp_path):
        path = self.make_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run summary" in out
        assert "DVFS energy attribution" in out

    def test_trace_report_writes_markdown_output(self, capsys, tmp_path):
        path = self.make_trace(tmp_path)
        report = tmp_path / "report.md"
        assert main(["trace-report", str(path), "--format", "markdown",
                     "--output", str(report)]) == 0
        assert report.read_text().startswith("# Trace report:")

    def test_trace_compare_identical_runs_strict(self, capsys, tmp_path):
        a = self.make_trace(tmp_path, "a.jsonl")
        b = self.make_trace(tmp_path, "b.jsonl")
        capsys.readouterr()
        assert main(["trace-compare", str(a), str(b), "--strict"]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_trace_compare_different_seeds_strict_fails(
        self, capsys, tmp_path
    ):
        a = self.make_trace(tmp_path, "a.jsonl")
        b = self.make_trace(tmp_path, "b.jsonl", extra=["--seed", "8"])
        capsys.readouterr()
        assert main(["trace-compare", str(a), str(b), "--strict"]) == 1
        assert "RESULT: FAIL" in capsys.readouterr().out

    def test_run_report_flag_appends_analysis(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["run", "helcfl", "--quick", "--rounds", "3",
                     "--trace", str(path), "--report"]) == 0
        out = capsys.readouterr().out
        assert "Run summary" in out
        assert "Per-round" in out

    def test_run_trace_summary_counts_and_stage_rows(
        self, capsys, tmp_path, monkeypatch
    ):
        """The event count ``run --trace`` prints is the validator's, and
        ``--report``'s span self-time table has a row per round stage."""
        import re

        from repro.obs import validate_trace

        monkeypatch.chdir(tmp_path)
        assert main(["run", "helcfl", "--quick", "--rounds", "2",
                     "--trace", "t.jsonl", "--report"]) == 0
        out = capsys.readouterr().out
        printed = re.search(r"^saved trace to t\.jsonl \((\d+) events\)$", out, re.M)
        assert printed and int(printed.group(1)) == validate_trace("t.jsonl")
        table = out.split("Span self-time", 1)[1].split("\n\n", 1)[0]
        rows = {line.split()[0]: line.split()[1] for line in table.splitlines()[3:]}
        for stage in ("selection", "frequency_assignment", "local_updates", "aggregation"):
            assert rows[stage] == "2", stage

    def test_run_report_flag_requires_trace(self, capsys):
        assert main(["run", "helcfl", "--quick", "--report"]) == 2
        assert "--report requires --trace" in capsys.readouterr().err

    def test_trace_report_table_includes_span_sections(
        self, capsys, tmp_path
    ):
        path = self.make_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Span tree (structural, deterministic)" in out
        assert "Span self-time" in out

    def test_trace_report_chrome_trace_format(self, capsys, tmp_path):
        import json as _json

        path = self.make_trace(tmp_path)
        exported = tmp_path / "trace-chrome.json"
        assert main(["trace-report", str(path), "--format", "chrome-trace",
                     "--output", str(exported)]) == 0
        document = _json.loads(exported.read_text())
        assert document["displayTimeUnit"] == "ms"
        slices = [
            e for e in document["traceEvents"] if e["ph"] != "M"
        ]
        assert slices, "expected span slices in the export"
        assert {"run", "round", "task"} <= {e["name"] for e in slices}

    def test_no_spans_flag_disables_span_events(self, capsys, tmp_path):
        import json as _json

        path = self.make_trace(tmp_path, extra=["--no-spans"])
        kinds = {
            _json.loads(line)["event"]
            for line in path.read_text().splitlines()
        }
        assert not kinds & {"span_start", "span_end", "worker_resource"}
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        assert "Span tree" not in capsys.readouterr().out

    def test_gzip_trace_via_cli(self, capsys, tmp_path):
        path = self.make_trace(tmp_path, "t.jsonl.gz")
        capsys.readouterr()
        assert main(["trace-report", str(path), "--format", "json"]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert payload["num_rounds"] == 3


class TestCampaignCommands:
    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        import json

        path = tmp_path_factory.mktemp("campaign-cli") / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-smoke",
                    "profile": "quick",
                    "seeds": [0],
                    "strategies": ["helcfl"],
                    "overrides": [
                        {
                            "settings": {
                                "num_users": 6,
                                "rounds": 4,
                                "train_size": 96,
                                "test_size": 32,
                            }
                        }
                    ],
                    "pool_workers": 1,
                }
            )
        )
        return path

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_requires_dir(self, spec_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", str(spec_path)])

    def test_campaign_run_status_compare(self, capsys, tmp_path, spec_path):
        campaign_dir = tmp_path / "camp"
        code = main(
            ["campaign", "run", str(spec_path), "--dir", str(campaign_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "s0-helcfl-c0-f0" in out and "done" in out
        assert (campaign_dir / "aggregate.json").exists()

        assert main(["campaign", "status", str(campaign_dir)]) == 0
        out = capsys.readouterr().out
        assert "runs: done=1  attempts=1" in out

        aggregate = str(campaign_dir / "aggregate.json")
        assert main(
            ["campaign", "compare", aggregate, aggregate, "--strict"]
        ) == 0
        assert "ok" in capsys.readouterr().out

    def test_campaign_status_and_watch_after_run(
        self, capsys, tmp_path, spec_path
    ):
        campaign_dir = tmp_path / "camp"
        assert main(
            ["campaign", "run", str(spec_path), "--dir", str(campaign_dir)]
        ) == 0
        capsys.readouterr()

        assert main(["campaign", "status", str(campaign_dir)]) == 0
        status_out = capsys.readouterr().out
        assert "campaign cli-smoke" in status_out
        assert "attempts=1" in status_out
        row = next(
            line for line in status_out.splitlines()
            if line.startswith("s0-helcfl-c0-f0")
        )
        assert " done " in row
        assert "4/4" in row  # all 4 rounds complete

        # The campaign is finished, so watch renders one frame and
        # returns without a flag to ask for it.
        assert main(["campaign", "watch", str(campaign_dir)]) == 0
        watch_out = capsys.readouterr().out
        assert watch_out.count("campaign cli-smoke") == 1
        assert row in watch_out.splitlines()

    def test_watch_has_no_once_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "watch", str(tmp_path), "--once"]
            )

    def test_campaign_resume_of_finished_campaign(
        self, capsys, tmp_path, spec_path
    ):
        campaign_dir = tmp_path / "camp"
        assert main(
            ["campaign", "run", str(spec_path), "--dir", str(campaign_dir)]
        ) == 0
        before = (campaign_dir / "aggregate.json").read_bytes()
        capsys.readouterr()
        assert main(
            [
                "campaign",
                "run",
                str(spec_path),
                "--dir",
                str(campaign_dir),
                "--resume",
            ]
        ) == 0
        assert (campaign_dir / "aggregate.json").read_bytes() == before


class TestBadDocumentsAreErrorLines:
    """A bad document is ``error: ...`` on stderr and exit 2, never a
    traceback (``main`` returns instead of raising)."""

    def expect_error_line(self, capsys, argv, *needles):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for needle in needles:
            assert str(needle) in err, err

    def test_misspelt_fault_plan_key(self, capsys, tmp_path):
        plan = tmp_path / "typo-plan.json"
        plan.write_text('{"fault": []}')
        self.expect_error_line(
            capsys,
            ["run", "helcfl", "--quick", "--rounds", "1",
             "--faults", str(plan)],
            plan, "unknown fields ['fault']",
        )

    def test_missing_fault_plan_file(self, capsys, tmp_path):
        self.expect_error_line(
            capsys,
            ["run", "helcfl", "--quick", "--faults",
             str(tmp_path / "nope.json")],
            "nope.json",
        )

    def test_torn_status_file(self, capsys, tmp_path):
        from repro.campaign import CampaignManifest, CampaignSpec

        manifest = CampaignManifest.create(
            str(tmp_path), CampaignSpec(name="x")
        )
        status = tmp_path / "runs" / manifest.runs[0].run_id / "status.json"
        status.parent.mkdir(parents=True)
        status.write_text("[1,2]")
        self.expect_error_line(
            capsys, ["campaign", "status", str(tmp_path)], status
        )

    def test_torn_status_file_under_watch(self, capsys, tmp_path):
        from repro.campaign import CampaignManifest, CampaignSpec

        manifest = CampaignManifest.create(
            str(tmp_path), CampaignSpec(name="x")
        )
        status = tmp_path / "runs" / manifest.runs[0].run_id / "status.json"
        status.parent.mkdir(parents=True)
        status.write_text('{"status": "done", "attempts": 1')
        self.expect_error_line(
            capsys, ["campaign", "watch", str(tmp_path)], status
        )

    def test_campaign_spec_with_unknown_key(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"name": "x", "retries": 3}')
        self.expect_error_line(
            capsys,
            ["campaign", "run", str(spec), "--dir", str(tmp_path / "camp")],
            spec, "unknown fields ['retries']",
        )
        assert not (tmp_path / "camp").exists()

    def test_zero_workers(self, capsys):
        self.expect_error_line(
            capsys,
            ["run", "helcfl", "--quick", "--rounds", "1",
             "--backend", "thread", "--workers", "0"],
            "workers",
        )
