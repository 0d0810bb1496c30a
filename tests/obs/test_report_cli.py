"""Tests for the run manifest and the ``report`` / ``trace`` CLI commands."""

import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main as cli_main
from repro.obs.report import (
    MANIFEST_VERSION,
    filter_trace_events,
    load_manifest,
    read_trace,
    render_report,
    render_timeline,
    render_trace,
    update_manifest,
)


@pytest.fixture(autouse=True)
def reset_log_config():
    yield
    from repro.obs.log import INFO, configure

    configure(mode="human", level=INFO)


@pytest.fixture(scope="module")
def traced_results(tmp_path_factory):
    """One traced tiny scenario executed through the real CLI."""
    results_dir = str(tmp_path_factory.mktemp("results"))
    code = cli_main(
        [
            "run",
            "paper-default",
            "--seeds",
            "1",
            "--nodes",
            "16",
            "--duration",
            "1.5",
            "--schemes",
            "shortest-path,flash",
            "--results-dir",
            results_dir,
            "--quiet",
            "--trace",
            "--trace-sample-rate",
            "1.0",
            "--health-interval",
            "0.5",
        ]
    )
    assert code == 0
    return results_dir


class TestManifest:
    def test_update_and_load_round_trip(self, tmp_path):
        directory = str(tmp_path)
        update_manifest(directory, {"command": "run", "name": "a", "results": "a.jsonl"})
        update_manifest(directory, {"command": "run", "name": "b", "results": "b.jsonl"})
        # Same (command, name) replaces instead of duplicating.
        update_manifest(
            directory, {"command": "run", "name": "a", "results": "a.jsonl", "rows": 5}
        )
        manifest = load_manifest(directory)
        assert manifest["manifest_version"] == MANIFEST_VERSION
        entries = {entry["name"]: entry for entry in manifest["entries"]}
        assert set(entries) == {"a", "b"}
        assert entries["a"]["rows"] == 5

    def test_load_absent_or_corrupt_returns_none(self, tmp_path):
        assert load_manifest(str(tmp_path)) is None
        (tmp_path / "manifest.json").write_text("{not json")
        assert load_manifest(str(tmp_path)) is None

    def test_wrong_version_ignored(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"manifest_version": 999, "entries": []})
        )
        assert load_manifest(str(tmp_path)) is None


class TestReport:
    def test_cli_writes_manifest_and_report_renders(self, traced_results, capsys):
        manifest = load_manifest(traced_results)
        assert manifest is not None
        entry = manifest["entries"][0]
        assert entry["command"] == "run"
        assert entry["name"] == "paper-default"
        assert entry["obs_dir"] == os.path.join(traced_results, "obs")

        capsys.readouterr()
        assert cli_main(["report", traced_results]) == 0
        output = capsys.readouterr().out
        assert "paper-default (run, 1 row(s))" in output
        assert "scheme summary" in output
        assert "shortest-path" in output
        assert "epoch health" in output
        assert "gini_last" in output

    def test_report_without_manifest_discovers_jsonl(self, traced_results):
        # render_report falls back to globbing when the manifest is absent.
        text = render_report(traced_results)
        assert "scheme summary" in text

    def test_report_renders_the_fig9_table_of_a_place_compare_directory(
        self, tmp_path, capsys
    ):
        results_dir = str(tmp_path / "place")
        argv = [
            "place-compare", "--scale", "small", "--nodes", "24", "--methods", "greedy,exact",
            "--omegas", "0.02,0.2", "--results-dir", results_dir, "--quiet",
        ]
        assert cli_main(argv) == 0
        with open(os.path.join(results_dir, "fig9-small.txt"), encoding="utf-8") as handle:
            table = handle.read().split("\n", 2)[2].strip()  # below the title and its rule
        capsys.readouterr()
        assert cli_main(["report", results_dir]) == 0
        output = capsys.readouterr().out
        assert "place-small (place-compare, 4 row(s))" in output
        assert "non-scenario rows" not in output
        # Methods in grid order: greedy is the reference, exact gets the gap.
        assert table in output
        assert "exact_gap%" in table and "greedy_gap%" not in table
        # A manifest written before it recorded the methods: the order the
        # rows were written in stands in.
        manifest = load_manifest(results_dir)
        (entry,) = manifest["entries"]
        assert entry.pop("methods") == ["greedy", "exact"]
        update_manifest(results_dir, entry)
        assert table in render_report(results_dir)

    def test_report_lists_compare_schemes_in_grid_order(self, tmp_path, capsys):
        results_dir = str(tmp_path / "compare")
        argv = [
            "compare", "--scale", "small", "--nodes", "16", "--duration", "1",
            "--schemes", "spider,shortest-path,flash", "--results-dir", results_dir, "--quiet",
        ]
        assert cli_main(argv) == 0
        with open(os.path.join(results_dir, "fig8-small.txt"), encoding="utf-8") as handle:
            table = handle.read().split("\n", 2)[2].strip()
        # The file is in completion order, which two workers can make anything.
        rows_path = os.path.join(results_dir, "compare-small.jsonl")
        with open(rows_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(rows_path, "w", encoding="utf-8") as handle:
            handle.writelines(reversed(lines))
        assert table in render_report(results_dir)
        # A manifest written before it recorded the schemes: file order stands in.
        (entry,) = load_manifest(results_dir)["entries"]
        assert entry.pop("schemes") == ["spider", "shortest-path", "flash"]
        update_manifest(results_dir, entry)
        summary = render_report(results_dir).split("scheme summary\n")[1].splitlines()
        assert [line.split()[0] for line in summary[2:5]] == ["flash", "shortest-path", "spider"]

    def test_report_missing_dir_is_an_error(self, capsys):
        assert cli_main(["report", "/nonexistent/run-results"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_report_empty_dir_is_an_error(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path)]) == 2
        assert "no manifest.json" in capsys.readouterr().err


def trace_files(results_dir):
    obs_dir = os.path.join(results_dir, "obs")
    return [
        os.path.join(obs_dir, name)
        for name in sorted(os.listdir(obs_dir))
        if name.startswith("trace-")
    ]


class TestTraceCli:
    def test_table_render(self, traced_results, capsys):
        assert cli_main(["trace", trace_files(traced_results)[0], "--limit", "5"]) == 0
        output = capsys.readouterr().out
        assert "kind" in output and "payment.arrive" in output
        assert "more event(s); raise --limit" in output

    def test_directory_input_merges_shards(self, traced_results, capsys):
        obs_dir = os.path.join(traced_results, "obs")
        assert cli_main(["trace", obs_dir, "--kind", "trace.header"]) == 0
        output = capsys.readouterr().out
        assert output.count("trace.header") >= 1

    def test_kind_and_scheme_filters(self, traced_results, capsys):
        obs_dir = os.path.join(traced_results, "obs")
        assert cli_main(["trace", obs_dir, "--kind", "settle", "--scheme", "flash"]) == 0
        output = capsys.readouterr().out
        lines = [line for line in output.splitlines() if "payment." in line]
        assert lines
        assert all("flash" in line for line in lines)

    def test_timeline(self, traced_results, capsys):
        assert (
            cli_main(
                ["trace", trace_files(traced_results)[0], "--payment", "0", "--timeline"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert output.startswith("payment 0:")
        assert "arrive" in output

    def test_timeline_requires_payment(self, traced_results, capsys):
        assert cli_main(["trace", trace_files(traced_results)[0], "--timeline"]) == 2
        assert "--timeline requires --payment" in capsys.readouterr().err

    def test_bad_channel_filter(self, traced_results, capsys):
        assert cli_main(["trace", trace_files(traced_results)[0], "--channel", "a"]) == 2
        assert "two endpoints" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        assert cli_main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestTraceHelpers:
    def test_read_trace_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind": "payment.arrive", "t": 0.0, "pid": 0}\n'
            "not json\n"
            '{"no_kind": true}\n'
            '{"kind": "payment.settle", "t": 1.0, "pid": 0}\n'
        )
        events = read_trace(str(path))
        assert [event["kind"] for event in events] == ["payment.arrive", "payment.settle"]

    def test_filters_are_anded(self):
        events = [
            {"kind": "payment.lock", "pid": 1, "channel": ["a", "b"], "t": 0.1},
            {"kind": "payment.lock", "pid": 2, "channel": ["b", "a"], "t": 0.2},
            {"kind": "payment.fail", "pid": 1, "reason": "timeout", "t": 0.3},
        ]
        assert len(filter_trace_events(events, channel=["b", "a"])) == 2
        assert len(filter_trace_events(events, payment=1, channel=["a", "b"])) == 1
        assert filter_trace_events(events, reason="timeout")[0]["pid"] == 1
        assert filter_trace_events(events, kind="lock", payment=2)[0]["pid"] == 2

    def test_render_trace_empty(self):
        assert render_trace([]) == "(no matching events)"

    def test_render_timeline_missing_payment(self):
        assert "no events for payment 9" in render_timeline([], 9)

    def test_render_timeline_offsets(self):
        events = [
            {
                "kind": "payment.arrive",
                "pid": 0,
                "t": 1.0,
                "sender": "a",
                "recipient": "b",
                "value": 2.5,
                "scheme": "flash",
            },
            {"kind": "payment.settle", "pid": 0, "t": 1.5, "value": 2.5},
        ]
        text = render_timeline(events, 0)
        assert text.splitlines()[0] == "payment 0: a -> b, value 2.5, scheme flash"
        assert "+  0.5000s settle" in text


class TestLogModes:
    def test_log_json_mode_emits_records(self, traced_results, capsys):
        assert cli_main(["--log-json", "report", traced_results]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        record = json.loads(line)
        assert record["level"] == "info"
        assert record["logger"] == "repro.cli"


class TestClosedStdoutPipe:
    """``python -m repro <command> | head``: a reader that goes away ends the
    command with the SIGPIPE exit code and nothing on stderr."""

    def _command(self, argv, results_dir, unbuffered="1"):
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        argv = [results_dir if part == "<results>" else part for part in argv]
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED=unbuffered)
        return [sys.executable, "-m", "repro", *argv], env

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            (["list"], "1"),
            # Block-buffered: nothing is written until main()'s own flush.
            (["list"], ""),
            (["show", "paper-default"], "1"),
            (["report", "<results>"], "1"),
        ],
    )
    def test_reader_gone_before_the_first_write(self, traced_results, argv, unbuffered):
        command, env = self._command(argv, traced_results, unbuffered)
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            result = subprocess.run(
                command, env=env, stdout=write_fd, stderr=subprocess.PIPE, timeout=120
            )
        finally:
            os.close(write_fd)
        assert result.returncode == 128 + signal.SIGPIPE
        assert result.stderr == b""

    def test_reader_closes_after_the_first_line(self, traced_results):
        command, env = self._command(["list"], traced_results)
        with subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as process:
            first_line = process.stdout.readline()
            process.stdout.close()
            stderr = process.stderr.read()
            code = process.wait(timeout=120)
        assert first_line.startswith(b"scenario")
        # 0 when the child had already written everything into the pipe.
        assert code in (0, 128 + signal.SIGPIPE)
        assert stderr == b""
