"""Tests for the repro-aegis command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.workload == "website"
        assert args.func.__name__ == "cmd_profile"

    def test_deploy_options(self):
        args = build_parser().parse_args(
            ["deploy", "--mechanism", "dstar", "--epsilon", "2.0",
             "-o", "x.json"])
        assert args.mechanism == "dstar"
        assert args.epsilon == 2.0
        assert args.output == "x.json"

    def test_attack_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--attack", "rowhammer"])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.workers == 1
        assert args.shard_size is None
        assert args.checkpoint_dir == ""
        assert args.resume is False

    def test_campaign_options_on_fuzz_and_deploy(self):
        for sub in ("fuzz", "deploy"):
            args = build_parser().parse_args(
                [sub, "--workers", "4", "--shard-size", "64",
                 "--checkpoint-dir", "ckpt", "--resume"])
            assert args.workers == 4
            assert args.shard_size == 64
            assert args.checkpoint_dir == "ckpt"
            assert args.resume is True

    @pytest.mark.parametrize("flag", ["--workers", "--shard-size"])
    @pytest.mark.parametrize("value", ["0", "-1", "2.5", "four"])
    def test_non_positive_counts_rejected(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", flag, value])

    @pytest.mark.parametrize("argv, message", [
        (["fuzz", "--events", "-1"], "non-negative"),
        (["search", "--events", "-200"], "non-negative"),
        (["profile", "--secrets", "-43"], "non-negative"),
        (["deploy", "--secrets", "-1"], "non-negative"),
        (["attack", "--secrets", "-1"], "non-negative"),
        (["fuzz", "--budget", "0"], "positive"),
        (["search", "--budget", "0"], "positive"),
        (["deploy", "--budget", "-5"], "positive"),
        (["profile", "--runs", "0"], "positive"),
        (["deploy", "--runs", "0"], "positive"),
        (["attack", "--runs", "-2"], "positive"),
        (["profile", "--top", "0"], "positive"),
        (["attack", "--epochs", "0"], "positive"),
    ])
    def test_bad_counts_are_parser_errors(self, argv, message, capsys):
        # Counts used as ``[:n]`` must not slice from the end.
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"{argv[1]}: expected a {message} integer" \
            in capsys.readouterr().err

    def test_zero_counts_still_mean_all(self, monkeypatch, capsys):
        from repro.core import Aegis
        from repro.core.profiler import ApplicationProfiler
        from repro.cpu.events import processor_catalog
        events = int(processor_catalog("amd-epyc-7252")
                     .guest_sensitive.sum())
        assert main(["search", "--events", "0", "--budget", "1"]) == 0
        assert f"of {events} events" in capsys.readouterr().out

        class Stop(Exception):
            pass

        asked = []

        def record(self, secrets=None):
            asked.append(secrets)
            raise Stop

        monkeypatch.setattr(ApplicationProfiler, "profile", record)
        monkeypatch.setattr(Aegis, "deploy", record)
        for command in ("profile", "deploy"):
            with pytest.raises(Stop):
                main([command, "--secrets", "0"])
        assert asked == [None, None]

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main(["fuzz", "--budget", "32", "--events", "2", "--resume"])

    def test_cache_dir_only_on_campaign_commands(self):
        for sub in ("fuzz", "deploy"):
            args = build_parser().parse_args([sub, "--cache-dir", "store"])
            assert args.cache_dir == "store"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--cache-dir", "store"])

    def test_cache_dir_conflicts_reported_up_front(self):
        with pytest.raises(SystemExit, match="conflicts"):
            main(["fuzz", "--cache-dir", "a", "--checkpoint-dir", "b"])
        with pytest.raises(SystemExit, match="--strategy grammar"):
            main(["fuzz", "--cache-dir", "a", "--strategy", "coverage"])


class TestCommands:
    def test_profile_runs(self, capsys):
        code = main(["profile", "--workload", "keystroke", "--secrets",
                     "4", "--runs", "3", "--top", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "warm-up" in out
        assert "I(Y;X)" in out

    def test_fuzz_runs(self, capsys):
        code = main(["fuzz", "--budget", "120", "--events", "8",
                     "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "covering set" in out
        assert "cleanup" in out

    def test_fuzz_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "campaign"
        base = ["fuzz", "--budget", "96", "--events", "2",
                "--shard-size", "32", "--seed", "2",
                "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "campaign: 3 shards (0 resumed, 3 screened)" in first
        shards = sorted(p.name for p in ckpt.glob("shard-*.json"))
        assert shards == ["shard-00000.json", "shard-00001.json",
                          "shard-00002.json"]
        assert (ckpt / "campaign.json").exists()

        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "campaign: 3 shards (3 resumed, 0 screened)" in second
        # The resumed run reports the same fuzzing outcome.
        def tail(text):
            return [line for line in text.splitlines()
                    if "covering set" in line or "tested" in line]
        assert tail(second) == tail(first)

    def test_fuzz_resume_from_corrupt_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "campaign"
        base = ["fuzz", "--budget", "96", "--events", "2",
                "--shard-size", "32", "--seed", "2",
                "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        capsys.readouterr()
        (ckpt / "shard-00001.json").write_text("{broken", encoding="utf-8")
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 3 shards (2 resumed, 1 screened)" in out
        assert "covering set" in out

    def test_fuzz_cache_dir_rerun_screens_nothing(self, tmp_path, capsys):
        argv = ["fuzz", "--budget", "96", "--events", "2",
                "--shard-size", "32", "--seed", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "campaign: 3 shards (3 resumed, 0 screened)" in second
        assert [line for line in second.splitlines()
                if "covering set" in line] \
            == [line for line in first.splitlines()
                if "covering set" in line]

    def test_deploy_then_defended_attack(self, tmp_path, capsys):
        artifact = tmp_path / "aegis.json"
        code = main(["deploy", "--workload", "website", "--secrets", "4",
                     "--runs", "3", "--budget", "300",
                     "--epsilon", "0.25", "-o", str(artifact),
                     "--seed", "3"])
        assert code == 0
        assert artifact.exists()
        out = capsys.readouterr().out
        assert "privacy guarantee" in out

        code = main(["attack", "--attack", "wfa", "--secrets", "4",
                     "--runs", "6", "--epochs", "4",
                     "--slice", "0.02", "--artifact", str(artifact),
                     "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "defended accuracy" in out

    def test_report_from_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "aegis.json"
        main(["deploy", "--workload", "website", "--secrets", "4",
              "--runs", "3", "--budget", "300", "-o", str(artifact),
              "--seed", "5"])
        capsys.readouterr()
        out_file = tmp_path / "report.md"
        code = main(["report", "--artifact", str(artifact),
                     "-o", str(out_file)])
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert "# Aegis deployment report" in text
        assert "Privacy budget" in text

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["profile", "--workload", "database"])


class TestFleetCli:
    SMALL = ["--tenants", "2", "--windows", "2", "--slices", "50"]

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["fleet", "serve"])
        assert args.tenants == 4
        assert args.slices == 3000
        assert args.concurrency == 0
        assert args.epsilon_cap is None
        assert args.func.__name__ == "cmd_fleet_serve"

    def test_status_requires_state_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "status"])

    def test_artifact_conflicts_with_registry(self):
        with pytest.raises(SystemExit, match="conflicts"):
            main(["fleet", "serve", "--artifact", "a.json",
                  "--registry", "reg"])

    def test_replay_repeat_must_compare(self):
        with pytest.raises(SystemExit, match="--repeat"):
            main(["fleet", "replay", *self.SMALL, "--repeat", "1"])

    def test_serve_then_status(self, tmp_path, capsys):
        code = main(["fleet", "serve", *self.SMALL,
                     "--state-dir", str(tmp_path)])
        assert code == 0
        status_path = tmp_path / "fleet-status.json"
        assert status_path.is_file()
        out = capsys.readouterr().out
        assert "served 4 windows" in out

        code = main(["fleet", "status", "--state-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "t00" in out and "t01" in out

    def test_replay_is_bit_identical_under_fault(self, capsys):
        plan = ('{"seed": 3, "faults": [{"point": "fleet.provision", '
                '"mode": "raise", "times": 1}]}')
        code = main(["fleet", "replay", *self.SMALL,
                     "--repeat", "2", "--fault-plan", plan])
        assert code == 0
        assert "bit-identical across 2 runs" in capsys.readouterr().out

    def test_bad_fault_plan_exits(self):
        with pytest.raises(SystemExit):
            main(["fleet", "serve", *self.SMALL,
                  "--fault-plan", "{not json"])

    def test_epsilon_cap_reported(self, capsys):
        code = main(["fleet", "serve", "--tenants", "1", "--windows", "3",
                     "--slices", "50", "--epsilon-cap", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget-exhausted" in out
        assert "budget-exhausted tenants: t00" in out

    def test_registry_round_trip(self, tmp_path, capsys):
        from repro.fleet import ArtifactRegistry, default_artifact
        registry_dir = tmp_path / "registry"
        ArtifactRegistry(registry_dir).publish(default_artifact(),
                                               workload="website")
        code = main(["fleet", "serve", *self.SMALL,
                     "--registry", str(registry_dir)])
        assert code == 0
        assert "served 4 windows" in capsys.readouterr().out


class TestObservabilityCli:
    SMALL = ["--tenants", "4", "--windows", "2", "--slices", "40"]
    ATTACKED = [*SMALL, "--attackers", "t02=burst-poll,t03=single-step"]

    def test_obs_flags_parse(self):
        args = build_parser().parse_args(
            ["fleet", "serve", "--obs-dir", "obs", "--obs-profile"])
        assert args.obs_dir == "obs"
        assert args.obs_profile is True
        assert args.attackers == ""
        for sub in (["profile"], ["fuzz"], ["deploy"]):
            args = build_parser().parse_args([*sub, "--obs"])
            assert args.obs is True

    def test_obs_profile_requires_obs(self):
        with pytest.raises(SystemExit, match="--obs"):
            main(["fleet", "serve", *self.SMALL, "--obs-profile"])

    def test_bad_attacker_spec_exits(self):
        with pytest.raises(SystemExit, match="attacker"):
            main(["fleet", "serve", *self.SMALL,
                  "--attackers", "t02=rowhammer"])
        with pytest.raises(SystemExit, match="attacker"):
            main(["fleet", "serve", *self.SMALL, "--attackers", "nope"])

    def test_attacker_on_unknown_tenant_exits(self):
        with pytest.raises(SystemExit, match="unknown tenant"):
            main(["fleet", "serve", "--tenants", "2", "--windows", "1",
                  "--slices", "20", "--attackers", "t09=single-step"])

    def test_serve_with_obs_reports_alerts(self, tmp_path, capsys):
        code = main(["fleet", "serve", *self.ATTACKED, "--obs",
                     "--state-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 attack-signal alert(s)" in out
        assert "[critical]" in out and "single-step-cadence" in out

    def test_obs_dir_exports_openmetrics_and_snapshots(self, tmp_path):
        obs_dir = tmp_path / "obs"
        code = main(["fleet", "serve", *self.ATTACKED,
                     "--obs-dir", str(obs_dir), "-q"])
        assert code == 0
        text = (obs_dir / "metrics.om").read_text()
        assert text.endswith("# EOF\n")
        assert "# TYPE slo_fleet_serve_window_seconds histogram" in text
        assert "obs_alert_burst_polling_total 2" in text
        from repro.observability import read_export
        records = read_export(obs_dir / "metrics-snapshots.jsonl")
        assert [r["seq"] for r in records] == [0]

    def test_obs_profile_reports_samples(self, capsys):
        code = main(["fleet", "serve", *self.SMALL, "--obs",
                     "--obs-profile"])
        assert code == 0
        assert "profiler:" in capsys.readouterr().out

    def test_status_exits_nonzero_when_degraded(self, tmp_path, capsys):
        import json

        code = main(["fleet", "serve", *self.SMALL,
                     "--state-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        status_path = tmp_path / "fleet-status.json"
        status = json.loads(status_path.read_text())
        status["health"] = {
            "healthy": False,
            "reasons": ["tenant t00: 2 provisioning stall(s) — noise "
                        "refills failing, slices withheld fail-closed"]}
        status_path.write_text(json.dumps(status))
        code = main(["fleet", "status", "--state-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "UNHEALTHY" in out
        assert "tenant t00: 2 provisioning stall(s)" in out

    def test_status_healthy_when_quota_runs_out(self, tmp_path, capsys):
        # Two of six 200-slice windows fit a 450 ε cap; admission
        # rejecting the other four is the quota working, not a fault.
        code = main(["fleet", "serve", "--tenants", "2", "--windows", "6",
                     "--slices", "200", "--epsilon-cap", "450",
                     "--state-dir", str(tmp_path), "-q"])
        assert code == 0
        capsys.readouterr()
        code = main(["fleet", "status", "--state-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "windows: 4 admitted, 8 rejected" in out
        assert "UNHEALTHY" not in out

    def test_status_watch_renders_frames(self, tmp_path, capsys):
        code = main(["fleet", "serve", *self.ATTACKED, "--obs",
                     "--state-dir", str(tmp_path), "-q"])
        assert code == 0
        capsys.readouterr()
        code = main(["fleet", "status", "--state-dir", str(tmp_path),
                     "--watch", "--frames", "2", "--interval", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("# Fleet status") == 2
        assert "health: OK" in out
        assert "## SLO latency" in out
        assert "## Alerts (6)" in out

    def test_top_renders_dashboard(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        state_dir = tmp_path / "state"
        code = main(["fleet", "serve", *self.ATTACKED, "--obs",
                     "--trace-dir", str(trace_dir),
                     "--state-dir", str(state_dir), "-q"])
        assert code == 0
        capsys.readouterr()
        code = main(["top", "--trace", str(trace_dir),
                     "--state-dir", str(state_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# repro top" in out
        assert "## SLO latency" in out
        assert "fleet.serve_window" in out
        assert "## Busiest counters" in out
        assert "## Alerts (6)" in out

    def test_top_without_metrics_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="metrics"):
            main(["top", "--trace", str(tmp_path)])
