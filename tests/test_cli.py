"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_machines(self):
        args = build_parser().parse_args(["machines"])
        assert args.command == "machines"

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "d1"])
        assert args.scale == "ci" and args.seed == 0

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "d99"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig4", "--scale", "ci"])
        assert args.name == "fig4"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_machines_output(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "Hydra" in out and "SuperMUC-NG" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3", "--scale", "ci"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_serve_chaos_ops_needs_workers(self, capsys):
        # refused before any model loads or any stdin line is read
        code = main(["serve", "--chaos-ops", "--rules", "hydra_bcast_rules.conf"])
        assert code == 2
        assert "--chaos-ops needs --workers" in capsys.readouterr().err

    def test_serve_tune_refused_with_workers(self, capsys):
        assert main(["serve", "--workers", "2", "--tune", "bcast"]) == 2
        assert "--tune is incompatible with --workers" in capsys.readouterr().err

    @pytest.mark.slow
    def test_tune_writes_rules(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "rules.json"
        code = main(
            [
                "tune", "--machine", "TinyTestbed", "--library", "Open MPI",
                "--collective", "alltoall", "--learner", "KNN",
                "--nodes", "4", "--ppn", "2",
                "--format", "json", "-o", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["nodes"] == 4
        assert payload["rules"]


class TestTelemetryFlags:
    """PR 2 surface: --telemetry/--resume flags and the report command."""

    def test_generate_flags_default_off(self):
        args = build_parser().parse_args(["generate", "d1"])
        assert args.resume is False and args.telemetry is None

    def test_generate_flags_parse(self):
        args = build_parser().parse_args(
            ["generate", "d1", "--resume", "--telemetry", "run.jsonl"]
        )
        assert args.resume is True and args.telemetry == "run.jsonl"

    def test_tune_flags_parse(self):
        args = build_parser().parse_args(
            ["tune", "--nodes", "4", "--ppn", "2",
             "--resume", "--telemetry", "-"]
        )
        assert args.resume is True and args.telemetry == "-"

    def test_report_requires_telemetry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_report_parse(self):
        args = build_parser().parse_args(
            ["report", "--telemetry", "run.jsonl", "--top", "3"]
        )
        assert args.telemetry == "run.jsonl" and args.top == 3


class TestTelemetryCommands:
    def test_generate_writes_jsonl_and_report_reads_it(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        log = tmp_path / "run.jsonl"
        assert main(
            ["generate", "d6", "--scale", "ci",
             "--telemetry", str(log)]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry written to" in out
        assert log.exists() and log.read_text().strip()

        assert main(["report", "--telemetry", str(log), "--top", "5"]) == 0
        report = capsys.readouterr().out
        assert "campaign/" in report
        assert "campaign.samples" in report

    def test_generate_resume_flag_accepted_fresh(
        self, tmp_path, capsys, monkeypatch
    ):
        # --resume on a campaign with no journal is a silent no-op
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["generate", "d6", "--scale", "ci", "--resume"]) == 0
        assert "samples" in capsys.readouterr().out
