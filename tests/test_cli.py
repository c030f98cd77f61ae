"""End-to-end tests for the timerstudy CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_os(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "beos", "idle"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "linux", "compile"])


class TestRunAndAnalyze:
    def test_run_writes_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl.gz")
        assert main(["run", "linux", "idle", "--minutes", "0.5",
                     "--out", out]) == 0
        from repro.tracing import materialize, open_trace
        trace = materialize(open_trace(out))
        assert trace.os_name == "linux"
        assert len(trace) > 100

    def test_analyze_prints_all_sections(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl.gz")
        main(["run", "linux", "idle", "--minutes", "0.5", "--out", out])
        capsys.readouterr()
        assert main(["analyze", out, "--filter-x"]) == 0
        text = capsys.readouterr().out
        for section in ("Summary", "Usage patterns", "Common timeout",
                        "Observed durations", "Origins",
                        "Value adaptivity"):
            assert section in text

    def test_vista_run(self, tmp_path):
        out = str(tmp_path / "v.jsonl.gz")
        assert main(["run", "vista", "idle", "--minutes", "0.25",
                     "--out", out]) == 0

    def test_run_stream_analyzes_without_trace_file(self, tmp_path,
                                                    capsys,
                                                    monkeypatch):
        out = str(tmp_path / "batch.jsonl.gz")
        main(["run", "linux", "idle", "--minutes", "0.5", "--out", out])
        capsys.readouterr()
        assert main(["analyze", out]) == 0
        batch_text = capsys.readouterr().out

        # --stream writes nothing, not even the default trace file.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "linux", "idle", "--minutes", "0.5",
                     "--stream"]) == 0
        captured = capsys.readouterr()
        import os
        assert not os.path.exists(tmp_path / "trace.jsonl.gz")
        assert "no trace file written" in captured.err
        # In-flight analysis matches analyzing the saved trace, minus
        # the batch-only tail sections.
        head = batch_text.split("=== Value adaptivity")[0]
        assert captured.out.startswith(head)
        assert "(unavailable on a streaming analysis)" in captured.out


class TestClusterFlags:
    def test_hosts_run_writes_v3_and_rollup(self, tmp_path, capsys):
        out = str(tmp_path / "cluster.bin")
        assert main(["run", "linux", "serverfarm", "--minutes", "0.25",
                     "--hosts", "2", "--cpus", "2", "--out", out]) == 0
        from repro.tracing import detect_format, open_trace
        assert detect_format(out) == "binfmt3"
        assert {event.host for event in open_trace(out)} == {1, 2}
        capsys.readouterr()
        assert main(["analyze", out]) == 0
        assert "Per-host rollup" in capsys.readouterr().out

    def test_hosts_one_is_byte_identical_to_plain_run(self, tmp_path):
        plain = str(tmp_path / "plain.bin")
        flagged = str(tmp_path / "flagged.bin")
        assert main(["run", "linux", "webserver", "--minutes", "0.25",
                     "--out", plain]) == 0
        assert main(["run", "linux", "webserver", "--minutes", "0.25",
                     "--hosts", "1", "--cpus", "1",
                     "--out", flagged]) == 0
        assert open(plain, "rb").read() == open(flagged, "rb").read()

    @pytest.mark.parametrize("argv", [["run", "vista", "webserver"],
                                      ["study"], ["sec51"], ["serve"]],
                             ids=lambda argv: argv[0])
    def test_cpus_without_hosts_exits_2(self, argv, capsys):
        """--cpus only sets the cpu column of cluster traces; on a
        single host it would do nothing, so it is refused."""
        assert main(argv + ["--cpus", "2"]) == 2
        assert "--hosts > 1" in capsys.readouterr().err

    def test_cluster_analyze_parallel_matches_serial(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "cluster.bin")
        main(["run", "linux", "serverfarm", "--minutes", "0.25",
              "--hosts", "2", "--out", out])
        capsys.readouterr()
        assert main(["analyze", out]) == 0
        serial = capsys.readouterr().out
        assert main(["analyze", out, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_stream_conflicts_with_hosts(self, capsys):
        assert main(["run", "linux", "serverfarm", "--minutes", "0.25",
                     "--hosts", "2", "--stream"]) == 2
        assert "--stream" in capsys.readouterr().err

    def test_nonpositive_hosts_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "linux", "serverfarm",
                                       "--hosts", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "linux", "serverfarm",
                                       "--cpus", "-2"])

    def test_hosts_run_with_metrics(self, tmp_path, capsys):
        out = str(tmp_path / "cluster.bin")
        assert main(["run", "linux", "serverfarm", "--minutes", "0.25",
                     "--hosts", "2", "--out", out, "--metrics"]) == 0
        err = capsys.readouterr().err
        assert 'host="1"' in err and 'host="2"' in err


class TestErrorPaths:
    """The CLI's failure modes: every bad invocation must exit with a
    clear diagnostic, never a traceback."""

    def test_unknown_backend_lists_registered(self, capsys):
        # `metrics` resolves names at run time, so an unregistered
        # backend travels the KeyError path rather than argparse.
        assert main(["metrics", "beos", "idle"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend" in err
        assert "linux" in err and "vista" in err
        assert "Traceback" not in err

    def test_unknown_workload_for_backend(self, capsys):
        # "desktop" is registered — but only for vista; argparse's
        # global workload choices accept it, the registry must reject.
        assert main(["run", "linux", "desktop",
                     "--minutes", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "unknown linux workload 'desktop'" in err
        assert "idle" in err       # the valid choices are listed

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_bad_jobs_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--minutes", "0.1", "--jobs", bad])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_stream_conflicts_with_out(self, tmp_path, capsys):
        out = str(tmp_path / "never.jsonl.gz")
        assert main(["run", "linux", "idle", "--minutes", "0.1",
                     "--stream", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--stream" in err and "--out" in err
        import os
        assert not os.path.exists(out)


class TestMetricsFlag:
    def test_run_metrics_goes_to_stderr(self, tmp_path, capsys):
        out = str(tmp_path / "t.bin")
        assert main(["run", "linux", "idle", "--minutes", "0.25",
                     "--out", out, "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "repro_engine_events_dispatched_total" in captured.err
        assert "repro_wheel_cascades_total" in captured.err
        assert "repro_" not in captured.out

    def test_metrics_out_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "t.bin")
        mpath = str(tmp_path / "metrics.prom")
        assert main(["run", "vista", "idle", "--minutes", "0.25",
                     "--out", out, "--metrics-out", mpath]) == 0
        text = open(mpath, encoding="utf-8").read()
        assert "# TYPE repro_ring_pending gauge" in text
        assert 'os="vista"' in text

    def test_stream_run_collects_streaming_metrics(self, capsys,
                                                   monkeypatch,
                                                   tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "linux", "idle", "--minutes", "0.25",
                     "--stream", "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "repro_streaming_events_total" in err
        assert "repro_streaming_episodes_total" in err

    def test_metrics_subcommand_prints_exposition(self, capsys):
        assert main(["metrics", "linux", "idle",
                     "--minutes", "0.25"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP repro_engine_")
        assert "repro_power_wakeups_total" in out

    def test_metrics_subcommand_profile(self, capsys):
        assert main(["metrics", "vista", "idle", "--minutes", "0.25",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "per-subsystem virtual-time profile" in out
        assert "sim.devices" in out

    def test_metrics_out_creates_missing_parent_dirs(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "t.bin")
        mpath = str(tmp_path / "deep" / "nested" / "metrics.prom")
        assert main(["run", "linux", "idle", "--minutes", "0.25",
                     "--out", out, "--metrics-out", mpath]) == 0
        assert "repro_engine_events_dispatched_total" in \
            open(mpath, encoding="utf-8").read()

    def test_metrics_out_unwritable_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "t.bin")
        blocker = tmp_path / "file"
        blocker.write_text("")
        mpath = str(blocker / "metrics.prom")   # parent is a file
        assert main(["run", "linux", "idle", "--minutes", "0.25",
                     "--out", out, "--metrics-out", mpath]) == 2
        assert "error: cannot write metrics to" in \
            capsys.readouterr().err

    def test_metrics_subcommand_json_format(self, capsys):
        import json

        from repro.obs import MetricsSnapshot
        assert main(["metrics", "linux", "idle", "--minutes", "0.25",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert any(s["name"] == "repro_power_wakeups_total"
                   for s in doc["samples"])
        # The JSON is a faithful snapshot: it parses back into an
        # equivalent snapshot whose exposition names every series.
        snapshot = MetricsSnapshot.from_json(out)
        assert snapshot.to_json(indent=2) == out.rstrip("\n")
        assert "repro_engine_events_dispatched_total" in \
            snapshot.render()

    def test_study_output_byte_identical_with_metrics(self, capsys):
        assert main(["study", "--minutes", "0.1", "--jobs", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(["study", "--minutes", "0.1", "--jobs", "1",
                     "--metrics"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "repro_engine_events_dispatched_total" in captured.err


class TestBrowse:
    def test_unreachable(self, capsys):
        assert main(["browse", "--unreachable"]) == 0
        text = capsys.readouterr().out
        assert "unreachable" in text
        assert "NFS/SunRPC gave up" in text

    def test_adaptive(self, capsys):
        assert main(["browse", "--unreachable", "--adaptive"]) == 0
        text = capsys.readouterr().out
        assert "unreachable after 0." in text

    def test_healthy(self, capsys):
        assert main(["browse"]) == 0
        assert "connected" in capsys.readouterr().out


class TestStudy:
    def test_condensed_study_runs(self, capsys):
        assert main(["study", "--minutes", "0.25"]) == 0
        text = capsys.readouterr().out
        assert "Table 1" in text and "Table 2" in text
        assert "Figure 1" in text
        assert "Fig2" in text


class TestReport:
    def test_report_written(self, tmp_path):
        out = str(tmp_path / "report.md")
        assert main(["report", "--minutes", "0.25", "--out", out]) == 0
        text = open(out, encoding="utf-8").read()
        for section in ("Table 1", "Table 2", "Figure 2", "Figure 7",
                        "Table 3", "Figure 11", "value adaptivity",
                        "Figure 1"):
            assert section in text


class TestCompareAndBinary:
    def test_binary_roundtrip_via_cli(self, tmp_path):
        out = str(tmp_path / "trace.bin")
        assert main(["run", "linux", "idle", "--minutes", "0.5",
                     "--out", out]) == 0
        assert main(["analyze", out]) == 0

    def test_compare_two_traces(self, tmp_path, capsys):
        a = str(tmp_path / "a.bin")
        b = str(tmp_path / "b.bin")
        main(["run", "linux", "idle", "--minutes", "0.5", "--out", a])
        main(["run", "linux", "webserver", "--minutes", "0.5",
              "--out", b])
        capsys.readouterr()
        assert main(["compare", a, b]) == 0
        text = capsys.readouterr().out
        assert "ratio" in text
        assert "value-distribution distance" in text
