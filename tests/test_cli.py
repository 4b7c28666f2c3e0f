"""End-to-end CLI tests (generate -> train -> link -> evaluate)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.mark.slow
class TestCliLifecycle:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        data = root / "data"
        model = root / "model"
        exit_code = main(
            [
                "generate", "--dataset", "hospital-x-like",
                "--out", str(data), "--seed", "9", "--queries", "60",
            ]
        )
        assert exit_code == 0
        exit_code = main(
            [
                "train", "--data", str(data), "--out", str(model),
                "--dim", "10", "--epochs", "2", "--cbow-epochs", "3",
                "--seed", "4",
            ]
        )
        assert exit_code == 0
        return data, model

    def test_generate_artifacts(self, workspace):
        data, _ = workspace
        assert (data / "ontology.json").exists()
        assert (data / "kb.json").exists()
        lines = (data / "queries.jsonl").read_text().splitlines()
        assert len(lines) == 60
        record = json.loads(lines[0])
        assert {"text", "cid", "channels"} <= set(record)

    def test_train_artifacts(self, workspace):
        _, model = workspace
        for name in ("config.json", "vocab.json", "model.npz",
                     "ontology.json", "kb.json", "vectors.npz"):
            assert (model / name).exists(), name

    def test_link_prints_candidates(self, workspace, capsys):
        _, model = workspace
        exit_code = main(
            ["link", "--model", str(model), "--top", "2", "anemia"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "query: 'anemia'" in captured

    def test_evaluate_reports_metrics(self, workspace, capsys):
        data, model = workspace
        exit_code = main(
            [
                "evaluate", "--model", str(model), "--data", str(data),
                "--limit", "20",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "accuracy=" in captured and "mrr=" in captured

    def test_verify_pipeline_ok(self, workspace, capsys):
        _, model = workspace
        exit_code = main(["verify-pipeline", "--model", str(model)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "all checksums match" in captured
        assert '"seed": 4' in captured  # training provenance surfaced

    def test_trace_prints_span_tree(self, workspace, capsys):
        _, model = workspace
        exit_code = main(["trace", "--model", str(model), "--k", "5", "anemia"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert captured.startswith("trace ")
        for fragment in (
            "cli.link",
            "linker.rewrite",
            "linker.retrieve",
            "linker.phase2",
            "linker.rerank",
            "phase=OR",
            "phase=CR",
            "phase=ED",
            "phase=RT",
        ):
            assert fragment in captured, fragment

    def test_train_run_dir_feeds_runs_cli(self, workspace, tmp_path, capsys):
        data, _ = workspace
        runs_root = tmp_path / "runs"
        exit_code = main(
            [
                "train", "--data", str(data), "--out", str(tmp_path / "m"),
                "--dim", "10", "--epochs", "2", "--cbow-epochs", "3",
                "--seed", "4", "--run-dir", str(runs_root),
                "--run-id", "telemetry-run",
            ]
        )
        assert exit_code == 0
        assert (runs_root / "telemetry-run" / "epochs.jsonl").is_file()
        capsys.readouterr()
        assert main(["runs", "--dir", str(runs_root)]) == 0
        listing = capsys.readouterr().out
        assert "telemetry-run" in listing
        assert "complete" in listing

    def test_verify_pipeline_detects_corruption(self, workspace, capsys):
        _, model = workspace
        target = model / "vocab.json"
        original = target.read_bytes()
        target.write_bytes(original[:-4])
        try:
            exit_code = main(["verify-pipeline", "--model", str(model)])
        finally:
            target.write_bytes(original)
        assert exit_code == 1
        assert "vocab.json" in capsys.readouterr().err


@pytest.mark.faults
class TestCliCrashResume:
    """The full drill: train with checkpoints, crash, resume, verify."""

    def test_train_crash_resume_verify(self, tmp_path, capsys):
        from repro.utils.faults import (
            FaultSpec,
            InjectedFault,
            fault_injection,
        )

        data = tmp_path / "data"
        assert main(
            ["generate", "--dataset", "hospital-x-like",
             "--out", str(data), "--seed", "9", "--queries", "40"]
        ) == 0
        train_args = [
            "train", "--data", str(data), "--dim", "10", "--epochs", "4",
            "--cbow-epochs", "3", "--seed", "4",
            "--checkpoint-every", "1",
        ]

        # Uninterrupted baseline.
        baseline = tmp_path / "baseline"
        assert main(
            train_args
            + ["--out", str(baseline),
               "--checkpoint-dir", str(tmp_path / "ckpt-base")]
        ) == 0

        # Crash after epoch 2, then resume from the latest checkpoint.
        crashed_ckpts = tmp_path / "ckpt-crash"
        with fault_injection(
            {"trainer.epoch_end": FaultSpec(after=1, times=1)}
        ):
            with pytest.raises(InjectedFault):
                main(
                    train_args
                    + ["--out", str(tmp_path / "crashed"),
                       "--checkpoint-dir", str(crashed_ckpts)]
                )
        resumed = tmp_path / "resumed"
        assert main(
            train_args
            + ["--out", str(resumed),
               "--checkpoint-dir", str(crashed_ckpts),
               "--resume", str(crashed_ckpts)]
        ) == 0

        # Bit-for-bit: the resumed pipeline's weights equal the baseline's.
        import numpy as np

        with np.load(baseline / "model.npz") as a, np.load(
            resumed / "model.npz"
        ) as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                np.testing.assert_array_equal(a[name], b[name])

        # The resumed deployment verifies and records its provenance.
        capsys.readouterr()
        assert main(["verify-pipeline", "--model", str(resumed)]) == 0
        out = capsys.readouterr().out
        assert "all checksums match" in out
        assert "resumed_from" in out


class TestRunsCli:
    @staticmethod
    def _write_run(root, run_id, losses):
        from repro.obs.runlog import RunLogger

        logger = RunLogger(root, run_id=run_id, meta={"seed": 7})
        for epoch, loss in enumerate(losses, start=1):
            logger.log_epoch(
                epoch, mean_loss=loss, tokens=80, seconds=0.4,
                tokens_per_s=200.0,
            )
        logger.finish(epochs=len(losses), final_loss=losses[-1], seconds=0.8)

    def test_lists_runs_as_a_table(self, tmp_path, capsys):
        self._write_run(tmp_path, "run-a", [2.0, 1.5])
        self._write_run(tmp_path, "run-b", [2.2, 1.4])
        assert main(["runs", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run-a" in out and "run-b" in out
        assert "1.5000" in out and "1.4000" in out

    def test_diff_prints_per_epoch_deltas(self, tmp_path, capsys):
        self._write_run(tmp_path, "run-a", [2.0, 1.5])
        self._write_run(tmp_path, "run-b", [2.2, 1.4])
        assert main(
            ["runs", "--dir", str(tmp_path), "--diff", "run-a", "run-b"]
        ) == 0
        out = capsys.readouterr().out
        assert "epoch   1" in out
        assert "delta=+0.2000" in out
        assert "delta=-0.1000" in out
        assert "final loss delta (B-A): -0.1000" in out

    def test_json_output_round_trips(self, tmp_path, capsys):
        self._write_run(tmp_path, "run-a", [2.0])
        assert main(["runs", "--dir", str(tmp_path), "--json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["run_id"] == "run-a"
        assert record["completed"] is True
        assert record["final_loss"] == 2.0

    def test_empty_root_is_not_an_error(self, tmp_path, capsys):
        assert main(["runs", "--dir", str(tmp_path / "none")]) == 0
        assert "no runs under" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m/"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert not hasattr(args, "cache_size")
        assert args.max_batch_size == 8
        assert not hasattr(args, "batch_wait_ms")
        assert args.request_timeout == 30.0
        assert args.no_warm is False

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m/", "--port", "0",
             "--max-batch-size", "32", "--no-warm"]
        )
        assert args.port == 0
        assert args.max_batch_size == 32
        assert args.no_warm is True

    def test_serve_refuses_removed_cache_size_by_name(self, capsys):
        # API 1.9 removed the encoding LRU caches the flag sized.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(
                ["serve", "--model", "m/", "--cache-size", "0"]
            )
        assert info.value.code == 2
        assert "--cache-size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "mode"), [("link", "sparse"), ("serve", "dense")]
    )
    def test_refuses_removed_retrieval_modes(self, command, mode, capsys):
        # API 1.10 kept two Phase-I retrieval modes: exact and hybrid.
        argv = [command, "--model", "m/", "--retrieval-mode", mode]
        if command == "link":
            argv.append("query")
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: {mode!r}" in err
        assert "'exact', 'hybrid'" in err

    def test_retrieval_mode_flag_reaches_the_linker_config(self):
        from repro.cli import _runtime_config

        args = build_parser().parse_args(
            ["link", "--model", "m/", "--artifact-dir", "a/",
             "--retrieval-mode", "hybrid", "query"]
        )
        assert _runtime_config(args).linker.retrieval_mode == "hybrid"

    def test_serve_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_train_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["train", "--data", "d/", "--out", "m/",
             "--checkpoint-dir", "c/", "--checkpoint-every", "2",
             "--resume", "c/epoch-0002"]
        )
        assert args.checkpoint_dir == "c/"
        assert args.checkpoint_every == 2
        assert args.resume == "c/epoch-0002"

    def test_train_checkpoint_defaults_off(self):
        args = build_parser().parse_args(
            ["train", "--data", "d/", "--out", "m/"]
        )
        assert args.checkpoint_dir is None
        assert args.checkpoint_every == 0
        assert args.resume is None

    def test_serve_trace_flags(self):
        args = build_parser().parse_args(["serve", "--model", "m/"])
        assert args.trace_sample == 1.0
        assert args.trace_buffer == 64
        assert args.log_json is False
        args = build_parser().parse_args(
            ["serve", "--model", "m/", "--trace-sample", "0.25",
             "--trace-buffer", "8", "--log-json"]
        )
        assert args.trace_sample == 0.25
        assert args.trace_buffer == 8
        assert args.log_json is True

    def test_train_run_flags(self):
        args = build_parser().parse_args(["train", "--data", "d/", "--out", "m/"])
        assert args.run_dir is None and args.run_id is None
        args = build_parser().parse_args(
            ["train", "--data", "d/", "--out", "m/",
             "--run-dir", "runs/", "--run-id", "r1"]
        )
        assert args.run_dir == "runs/"
        assert args.run_id == "r1"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "--model", "m/", "ckd 5"])
        assert args.func.__name__ == "_cmd_trace"
        assert args.k == 20
        assert args.queries == ["ckd 5"]

    def test_trace_file_mode_needs_no_model(self):
        args = build_parser().parse_args(["trace", "--file", "t.json"])
        assert args.func.__name__ == "_cmd_trace"
        assert args.model is None
        assert args.file == "t.json"
        assert args.queries == []

    def test_top_defaults_and_overrides(self):
        args = build_parser().parse_args(["top"])
        assert args.func.__name__ == "_cmd_top"
        assert args.url == "http://127.0.0.1:8080"
        assert args.timeout == 5.0
        assert args.json is False
        args = build_parser().parse_args(
            ["top", "--url", "http://10.0.0.1:9", "--timeout", "1.5",
             "--json"]
        )
        assert args.url == "http://10.0.0.1:9"
        assert args.timeout == 1.5
        assert args.json is True

    def test_serve_slo_flags(self):
        args = build_parser().parse_args(["serve", "--model", "m/"])
        assert args.slo_window == 60.0
        assert args.slo_availability == 0.999
        args = build_parser().parse_args(
            ["serve", "--model", "m/", "--slo-window", "30",
             "--slo-availability", "0.99"]
        )
        assert args.slo_window == 30.0
        assert args.slo_availability == 0.99

    def test_runs_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs"])

    def test_verify_pipeline_requires_a_target(self, capsys):
        # --model became optional when --artifact was added; a bare
        # invocation is rejected at runtime instead of by argparse.
        args = build_parser().parse_args(["verify-pipeline"])
        assert args.model is None and args.artifact is None
        assert main(["verify-pipeline"]) == 2
        assert "--model" in capsys.readouterr().err

    def test_unknown_dataset_is_clean_error(self, tmp_path, capsys):
        exit_code = main(
            ["generate", "--dataset", "nope", "--out", str(tmp_path / "x")]
        )
        assert exit_code == 1
        assert "unknown dataset" in capsys.readouterr().err


def _stitched_trace_dict(request_id="req-off"):
    """A captured stitched trace (the /v1/traces payload shape)."""
    return {
        "trace_id": "abc123", "request_id": request_id, "name": "http.link",
        "duration_s": 0.012, "dropped_spans": 0,
        "spans": [
            {"span_id": "s1", "parent_id": None, "name": "http.link",
             "start_s": 0.0, "duration_s": 0.012, "tags": {"status": 200},
             "events": []},
            {"span_id": "s2", "parent_id": "s1", "name": "service.request",
             "start_s": 0.001, "duration_s": 0.010,
             "tags": {"query": "ckd stage 5"}, "events": []},
            {"span_id": "s3", "parent_id": "s2", "name": "frontend.queue",
             "start_s": 0.001, "duration_s": 0.002, "tags": {},
             "events": []},
            {"span_id": "s4", "parent_id": "s2", "name": "frontend.dispatch",
             "start_s": 0.003, "duration_s": 0.008, "tags": {"worker": 0},
             "events": []},
            {"span_id": "s5", "parent_id": "s4", "name": "worker.link",
             "start_s": 0.004, "duration_s": 0.006,
             "tags": {"pid": 777, "worker_id": 0}, "events": []},
        ],
    }


class TestTraceFilePrinter:
    def test_renders_captured_stitched_traces(self, tmp_path, capsys):
        capture = tmp_path / "traces.json"
        capture.write_text(json.dumps({"traces": [_stitched_trace_dict()]}))
        assert main(["trace", "--file", str(capture)]) == 0
        out = capsys.readouterr().out
        # One tree spanning processes: queue wait in place, worker
        # subtree showing its process of origin.
        assert "request=req-off" in out
        assert "frontend.queue" in out
        assert "[pid 777]" in out
        assert "worker.link" in out

    def test_accepts_a_single_trace_dict(self, tmp_path, capsys):
        capture = tmp_path / "one.json"
        capture.write_text(json.dumps(_stitched_trace_dict("req-single")))
        assert main(["trace", "--file", str(capture)]) == 0
        assert "request=req-single" in capsys.readouterr().out

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["trace", "--file", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_empty_capture_is_exit_1(self, tmp_path, capsys):
        capture = tmp_path / "empty.json"
        capture.write_text(json.dumps({"traces": []}))
        assert main(["trace", "--file", str(capture)]) == 1
        assert "no traces" in capsys.readouterr().err

    def test_trace_without_model_or_file_is_exit_2(self, capsys):
        assert main(["trace"]) == 2
        assert "--file" in capsys.readouterr().err


class TestTopCli:
    SNAPSHOT = {
        "ready": True,
        "uptime_seconds": 125.0,
        "slo": {
            "window_s": 60.0, "availability": 0.985,
            "availability_objective": 0.999,
            "error_budget_burn_rate": 15.0, "p99_s": 0.042,
            "ok": 197, "shed": 2, "errors": 1,
            "deadline_ms": 100.0, "deadline_hit_ratio": 0.05,
        },
        "frontend": {
            "queue_depth": 3, "queue_bound": 256,
            "shed_policy": "reject_new", "inflight_jobs": 2,
            "shed_queue_full": 2, "shed_dropped_oldest": 0,
            "shed_deadline": 0, "worker_deaths": 1, "redispatches": 1,
            "workers": [
                {"worker_id": 0, "pid": 101, "ready": True, "jobs": 40,
                 "queries": 90, "errors": 0, "degraded": 2,
                 "respawns": 0, "busy_s": 1.5},
                {"worker_id": 1, "pid": 102, "ready": False, "jobs": 38,
                 "queries": 80, "errors": 1, "degraded": 0,
                 "respawns": 1, "busy_s": 1.25},
            ],
        },
    }

    def test_format_top_renders_slo_queue_and_worker_table(self):
        from repro.cli import format_top

        lines = format_top(self.SNAPSHOT, "http://127.0.0.1:8080")
        text = "\n".join(lines)
        assert "uptime 125s, ready" in text
        assert "availability 98.50%" in text
        assert "objective 99.90%" in text
        assert "burn 15.00x" in text
        assert "p99 42.0ms" in text
        assert "deadline 100ms (late 5.0%)" in text
        assert "197 ok / 2 shed / 1 errors" in text
        assert "queue depth 3/256 (reject_new)" in text
        assert "deaths=1 redispatches=1" in text
        # One row per worker slot, respawns and readiness visible.
        worker_rows = [l for l in lines if l.startswith(("0", "1"))]
        assert len(worker_rows) == 2
        assert "yes" in worker_rows[0] and "101" in worker_rows[0]
        assert "no" in worker_rows[1] and "102" in worker_rows[1]

    def test_format_top_without_frontend_is_slo_only(self):
        from repro.cli import format_top

        snapshot = {"ready": True, "uptime_seconds": 5.0,
                    "slo": {"window_s": 60.0, "availability": 1.0,
                            "availability_objective": 0.999,
                            "error_budget_burn_rate": 0.0, "p99_s": 0.001,
                            "ok": 3, "shed": 0, "errors": 0,
                            "deadline_ms": 0.0}}
        lines = format_top(snapshot)
        assert not any("queue depth" in line for line in lines)
        assert any("availability 100.00%" in line for line in lines)

    def test_unreachable_server_is_exit_1(self, capsys):
        assert main(
            ["top", "--url", "http://127.0.0.1:1", "--timeout", "0.2"]
        ) == 1
        assert "cannot fetch" in capsys.readouterr().err
