"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_parses(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"

    def test_fig5_options(self):
        args = build_parser().parse_args(
            ["fig5", "--loads", "0.6", "--pm", "25", "65", "--windows", "3"]
        )
        assert args.loads == [0.6]
        assert args.pm == [25, 65]
        assert args.windows == 3

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.pm == 60
        assert args.load == 0.6


class TestExecution:
    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "550m" in out

    def test_demo_honest(self, capsys):
        assert main(["demo", "--pm", "0", "--seconds", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "never flagged" in out

    def test_demo_cheater(self, capsys):
        assert main(["demo", "--pm", "70", "--seconds", "6", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "flagged malicious" in out

    def test_fig3_tiny(self, capsys):
        assert main(["fig3", "--loads", "0.02", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "rho" in out


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.flush_every == 64
        assert args.maintain_every == 4096
        assert args.queue_cap == 65536
        assert args.warmup == 100_000
        assert args.max_links is None
        assert args.links is None
        assert not args.no_discover

    def test_links_parse(self):
        args = build_parser().parse_args(
            ["serve", "--links", "7:77", "9:99"]
        )
        assert args.links == [(7, 77), (9, 99)]

    @pytest.mark.parametrize("bad", ["7", "7:77:8", "a:b", "7:"])
    def test_bad_link_rejected(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--links", bad])

    def test_sources_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--input", "a.jsonl", "--follow", "b.jsonl"]
            )


class TestServeExecution:
    @pytest.fixture
    def stream_path(self, tmp_path):
        from repro.serve.capture import synthetic_stream

        path = tmp_path / "stream.jsonl"
        path.write_text(
            "\n".join(synthetic_stream(3, 40)) + "\n", encoding="utf-8"
        )
        return path

    def test_replay_summary(self, stream_path, capsys):
        assert (
            main(["serve", "--input", str(stream_path), "--warmup", "0"]) == 0
        )
        out = capsys.readouterr().out
        assert "links: 3 tracked" in out
        assert "verdicts:" in out
        assert "queue drops: 0" in out

    def test_artifact_sinks(self, stream_path, tmp_path, capsys):
        audit = tmp_path / "audit.jsonl"
        provenance = tmp_path / "prov.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "serve",
                    "--input",
                    str(stream_path),
                    "--warmup",
                    "0",
                    "--audit",
                    str(audit),
                    "--provenance",
                    str(provenance),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        for line in audit.read_text().splitlines():
            json.loads(line)
        for line in provenance.read_text().splitlines():
            json.loads(line)
        prom = metrics.read_text()
        assert "serve_lines" in prom
        assert "serve_events_end" in prom

    def test_explicit_links_without_discovery(self, stream_path, capsys):
        assert (
            main(
                [
                    "serve",
                    "--input",
                    str(stream_path),
                    "--warmup",
                    "0",
                    "--no-discover",
                    "--links",
                    "1000000:2000000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "links: 1 tracked" in out

    def test_missing_input_fails(self, tmp_path):
        with pytest.raises(OSError):
            main(["serve", "--input", str(tmp_path / "absent.jsonl")])

    @pytest.mark.parametrize("flag", ["--retention", "--sample-size"])
    def test_zero_size_fails_before_the_source_opens(self, tmp_path, flag):
        with pytest.raises(ValueError):
            main(["serve", "--input", str(tmp_path / "absent.jsonl"), flag, "0"])
