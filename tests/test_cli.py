"""Command-line interface."""

import pytest

from repro import cli


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_play_defaults(self):
        args = cli.build_parser().parse_args(["play"])
        assert args.seed == 42
        assert not args.trace

    def test_study_args(self):
        args = cli.build_parser().parse_args(
            ["study", "--scale", "0.2", "--out", "x.csv"]
        )
        assert args.scale == 0.2
        assert args.workers == 1
        assert not args.resume
        assert args.checkpoint_dir is None

    def test_study_runtime_args(self):
        args = cli.build_parser().parse_args(
            ["study", "--workers", "4", "--resume",
             "--checkpoint-dir", "ckpt"]
        )
        assert args.workers == 4
        assert args.resume
        assert str(args.checkpoint_dir) == "ckpt"

    def test_figures_runtime_args(self):
        args = cli.build_parser().parse_args(
            ["figures", "--workers", "2", "--resume"]
        )
        assert args.workers == 2
        assert args.resume

    def test_figures_aggregation_args(self):
        args = cli.build_parser().parse_args(["figures"])
        assert args.aggregation == "exact"
        assert args.users is None
        args = cli.build_parser().parse_args(
            ["figures", "--aggregation", "sketch", "--users", "500"]
        )
        assert args.aggregation == "sketch"
        assert args.users == 500

    def test_figures_rejects_unknown_aggregation(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["figures", "--aggregation", "bogus"]
            )

    def test_sweep_args(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--spec", "s.toml", "--workers", "3",
             "--cache-dir", "cache", "--force", "--report", "r.json"]
        )
        assert str(args.spec) == "s.toml"
        assert args.workers == 3
        assert str(args.cache_dir) == "cache"
        assert args.force
        assert str(args.report) == "r.json"

    def test_sweep_requires_spec(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep"])


class TestPlayCommand:
    def test_play_runs(self, capsys):
        code = cli.main(["play", "--seed", "7", "--connection", "DSL/Cable"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome=" in out
        assert "frame rate" in out

    def test_play_with_trace(self, capsys):
        code = cli.main(
            ["play", "--seed", "8", "--connection", "T1/LAN", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flow profiles" in out
        assert "flow " in out


class TestStudyAndReport:
    def test_study_then_report_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "study.csv"
        code = cli.main([
            "study", "--seed", "5", "--scale", "0.02",
            "--out", str(csv_path), "--quiet",
        ])
        assert code == 0
        assert csv_path.exists()

        code = cli.main(["report", "--csv", str(csv_path), "--plots"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frame rate" in out
        assert "protocols:" in out
        assert "workload" in out.lower()
        assert "plays per country" in out

    def test_report_rejects_empty(self, tmp_path, capsys):
        from repro.core.records import StudyDataset
        from tests.test_core_records import record

        path = tmp_path / "empty.csv"
        StudyDataset(
            [record(outcome="unavailable")]
        ).to_csv(path)
        assert cli.main(["report", "--csv", str(path)]) == 2


class TestFiguresCommand:
    def test_forwards_aggregation_and_users_to_runner(self, monkeypatch):
        from repro.experiments import runner

        captured = {}

        def fake_run(args):
            captured["args"] = args
            return 0

        monkeypatch.setattr(runner, "run", fake_run)
        code = cli.main([
            "figures", "--seed", "9", "--scale", "0.03",
            "--aggregation", "sketch", "--users", "40", "--quiet",
        ])
        assert code == 0
        args = captured["args"]
        assert args.aggregation == "sketch"
        assert args.users == 40
        assert args.seed == 9
        assert args.scale == 0.03
        assert args.quiet

    def test_exact_mode_forwards_no_users_flag(self, monkeypatch):
        from repro.experiments import runner

        captured = {}
        monkeypatch.setattr(
            runner, "run",
            lambda args: captured.setdefault("args", args) and 0 or 0,
        )
        assert cli.main(["figures", "--quiet"]) == 0
        args = captured["args"]
        assert args.aggregation == "exact"
        assert args.users is None

    def test_sketch_figures_round_trip(self, tmp_path):
        """End-to-end: ``repro figures --aggregation sketch`` renders
        every figure and journals the merged aggregates."""
        import json

        out = tmp_path / "figs"
        code = cli.main([
            "figures", "--seed", "2001", "--scale", "0.01",
            "--users", "12", "--aggregation", "sketch",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 29
        assert (out / "fig11.txt").exists()
        assert (out / "fig28.json").exists()
        assert (out / "fig31.json").exists()
        aggregates = json.loads((out / "aggregates.json").read_text())
        assert aggregates["records"] > 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["aggregation"] == "sketch"


class TestSweepCommand:
    def _write_spec(self, tmp_path):
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "name": "cli-tiny",
            "scenarios": ["baseline", "small-buffer"],
            "seeds": [13],
            "scales": [0.15],
            "overrides": {
                "max_users": [6], "playlist_length": [8],
            },
        }))
        return spec_path

    def test_sweep_runs_then_rerun_hits_cache(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        cache_dir = tmp_path / "cache"
        report_path = tmp_path / "report.json"
        argv = [
            "sweep", "--spec", str(spec_path),
            "--cache-dir", str(cache_dir),
            "--report", str(report_path),
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "2 simulated, 0 from cache" in out
        assert ("cache traffic: 0 hits, 2 misses, 2 stores, "
                "0 corruption-evicted, 0 gc-evicted") in out
        assert "sweep 'cli-tiny'" in out
        assert (cache_dir / "sweep_manifest.json").exists()
        first_report = report_path.read_bytes()

        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 2 from cache" in out
        assert ("cache traffic: 2 hits, 0 misses, 0 stores, "
                "0 corruption-evicted, 0 gc-evicted") in out
        assert report_path.read_bytes() == first_report

    def test_sweep_bad_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"sceanrios": []}')
        assert cli.main(["sweep", "--spec", str(spec_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_args(self):
        args = cli.build_parser().parse_args(
            ["chaos", "--plan", "p.json", "--scale", "0.02",
             "--workers", "3", "--watchdog-deadline", "1.5",
             "--report", "c.json"]
        )
        assert str(args.plan) == "p.json"
        assert args.scale == 0.02
        assert args.workers == 3
        assert args.watchdog_deadline == 1.5
        assert str(args.report) == "c.json"

    def test_sweep_quarantine_threshold_arg(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--spec", "s.toml", "--quarantine-threshold", "0.1"]
        )
        assert args.quarantine_threshold == 0.1

    def test_chaos_runs_a_single_fault_plan(self, tmp_path, capsys):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "name": "one",
            "faults": [
                {"site": "worker.play", "action": "crash", "shard": 0},
            ],
        }))
        report_path = tmp_path / "chaos.json"
        code = cli.main([
            "chaos", "--plan", str(plan_path), "--seed", "11",
            "--scale", "0.02", "--workers", "2",
            "--report", str(report_path), "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all guarantees held" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["outcomes"][0]["status"] == "complete"

    def test_chaos_refuses_worker_faults_without_a_pool(
        self, tmp_path, capsys
    ):
        """``--workers 1`` runs shards in-process: a worker.play fault
        would never fire, so the matrix must refuse, not pass."""
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "faults": [
                {"site": "worker.play", "action": "crash", "shard": 0},
            ],
        }))
        code = cli.main([
            "chaos", "--plan", str(plan_path), "--workers", "1", "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "needs workers >= 2" in captured.err
        assert "all guarantees held" not in captured.out

    def test_chaos_pressure_matrix_rides_along(self, tmp_path, capsys):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "name": "one",
            "faults": [
                {"site": "worker.play", "action": "crash", "shard": 0},
            ],
        }))
        report_path = tmp_path / "chaos.json"
        code = cli.main([
            "chaos", "--plan", str(plan_path), "--seed", "11",
            "--scale", "0.02",
            "--pressure-budget", "3000",
            "--report", str(report_path), "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "budget=3000B" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        statuses = {o["cell"]: o["status"] for o in payload["outcomes"]}
        # the fault-free control and the retried crash complete against
        # the one golden; 3000 bytes must refuse
        assert statuses == {
            "control": "complete",
            "worker.play:crash+shard=0@play1": "complete",
            "budget=3000B": "refused",
        }

    def test_chaos_rejects_bad_plan(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["chaos", "--plan", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_rejects_empty_plan(self, tmp_path, capsys):
        import json

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"name": "void", "faults": []}))
        assert cli.main(["chaos", "--plan", str(empty)]) == 2
        assert "no faults" in capsys.readouterr().err


class TestScenariosCommand:
    def test_lists_every_scenario_with_stack(self, capsys):
        from repro.world.scenarios import SCENARIOS

        assert cli.main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
        assert "HTTP/TCP DASH-ABR (reno pacing)" in out
        assert "HTTP/TCP DASH-ABR (bbr pacing)" in out
        assert "RTSP + RDT/UDP (TCP fallback)" in out

    def test_json_round_trips_the_registry(self, capsys):
        import json

        from repro.world.scenarios import SCENARIOS

        assert cli.main(["scenarios", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == list(SCENARIOS)
        stacks = {row["name"]: row["stack"] for row in rows}
        assert stacks["baseline"] == "RTSP + RDT/UDP (TCP fallback)"
        assert stacks["dash-abr"] == "HTTP/TCP DASH-ABR (reno pacing)"
        assert stacks["dash-abr-bbr"] == "HTTP/TCP DASH-ABR (bbr pacing)"
        assert all(row["description"] for row in rows)


class TestModernStackSweep:
    def test_three_stacks_compared_with_claims(self, tmp_path, capsys):
        """A shrunken examples/sweeps/modern_stack.toml: the 2001
        stack and both DASH-ABR pacing variants through one sweep,
        with C1-C8 re-evaluated per cell against the baseline."""
        import json

        spec_path = tmp_path / "modern.json"
        spec_path.write_text(json.dumps({
            "name": "modern-tiny",
            "scenarios": ["baseline", "dash-abr", "dash-abr-bbr"],
            "seeds": [13],
            "scales": [0.15],
            "overrides": {"max_users": [6], "playlist_length": [8]},
        }))
        report_path = tmp_path / "report.json"
        assert cli.main([
            "sweep", "--spec", str(spec_path),
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "3 simulated, 0 from cache" in out
        payload = json.loads(report_path.read_text())
        cells = {c["cell_id"]: c for c in payload["cells"]}
        assert len(cells) == 3
        baseline = cells["baseline@s13x0.15+max_users=6+playlist_length=8"]
        assert baseline["is_baseline"] is True
        for cell_id, cell in cells.items():
            assert len(cell["claims"]) == 8
            verdicts = {
                c["claim_id"]: c["verdict"] for c in cell["claims"]
            }
            if "dash-abr" in cell_id:
                # TCP-only by construction: the protocol-mix claim
                # cannot be judged on a DASH cell.
                assert verdicts["C4"] == "n/a"


class TestResourceGovernanceArgs:
    def test_parse_bytes_suffixes(self):
        assert cli._parse_bytes("1048576") == 1 << 20
        assert cli._parse_bytes("512K") == 512 << 10
        assert cli._parse_bytes("64M") == 64 << 20
        assert cli._parse_bytes("2G") == 2 << 30
        assert cli._parse_bytes("1.5K") == 1536

    def test_parse_bytes_rejects_garbage(self):
        import argparse

        for bad in ("nope", "-1", "0", "12Q"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli._parse_bytes(bad)

    def test_study_budget_args(self):
        args = cli.build_parser().parse_args(
            ["study", "--disk-budget", "2G", "--memory-soft-bytes", "1G"]
        )
        assert args.disk_budget == 2 << 30
        assert args.memory_soft_bytes == 1 << 30

    def test_sweep_cache_cap_args(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--spec", "s.toml", "--max-cache-bytes", "512M",
             "--disk-budget", "1G"]
        )
        assert args.max_cache_bytes == 512 << 20
        assert args.disk_budget == 1 << 30

    def test_chaos_pressure_args(self):
        args = cli.build_parser().parse_args(
            ["chaos", "--pressure-budget", "300K",
             "--pressure-budget", "1M", "--shrink-to", "30K"]
        )
        assert args.pressure_budget == [300 << 10, 1 << 20]
        assert args.shrink_to == 30 << 10

    def test_serve_budget_args(self):
        args = cli.build_parser().parse_args(
            ["serve", "--max-disk-bytes", "10G",
             "--max-cache-bytes", "8G"]
        )
        assert args.max_disk_bytes == 10 << 30
        assert args.max_cache_bytes == 8 << 30


class TestCacheCommand:
    def _seed_cache(self, tmp_path):
        from repro.core.study import Study, StudyConfig
        from repro.sweep.cache import StudyCache

        config = StudyConfig(seed=11, scale=0.02, max_users=6,
                             playlist_length=4)
        cache = StudyCache(tmp_path / "cache")
        cache.store(config.canonical_hash(), Study(config).run())
        return tmp_path / "cache"

    def test_ls_lists_entries(self, tmp_path, capsys):
        cache_dir = self._seed_cache(tmp_path)
        assert cli.main(["cache", "ls", "--cache-dir",
                         str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "records" in out

    def test_gc_evicts_down_to_limit(self, tmp_path, capsys):
        cache_dir = self._seed_cache(tmp_path)
        assert cli.main(["cache", "gc", "--cache-dir", str(cache_dir),
                         "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 entry evicted" in out
        assert cli.main(["cache", "ls", "--cache-dir",
                         str(cache_dir)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_missing_cache_dir_exits_2(self, tmp_path, capsys):
        assert cli.main(["cache", "ls", "--cache-dir",
                         str(tmp_path / "nope")]) == 2
        assert "no cache directory" in capsys.readouterr().err
