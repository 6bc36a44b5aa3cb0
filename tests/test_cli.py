"""Tests for the command-line interface (python -m repro.cli)."""

import re

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def seed_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "seed.pcap"
    rc = main(
        [
            "synth", str(path),
            "--duration", "8", "--session-rate", "30", "--seed", "5",
        ]
    )
    assert rc == 0
    return path


class TestSynth:
    def test_writes_pcap(self, seed_pcap, capsys):
        assert seed_pcap.exists()
        assert seed_pcap.stat().st_size > 24


class TestAnalyze:
    def test_summary(self, seed_pcap, capsys):
        rc = main(["analyze", str(seed_pcap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flows (edges)" in out
        assert "mean in-degree" in out

    def test_save(self, seed_pcap, tmp_path, capsys):
        target = tmp_path / "seed.npz"
        rc = main(["analyze", str(seed_pcap), "--save", str(target)])
        assert rc == 0
        assert target.exists()


class TestGenerate:
    def test_pgpba(self, seed_pcap, tmp_path, capsys):
        npz = tmp_path / "syn.npz"
        tsv = tmp_path / "syn.tsv"
        rc = main(
            [
                "generate", str(seed_pcap),
                "--algorithm", "pgpba",
                "--edges", "5000",
                "--fraction", "0.5",
                "--save-npz", str(npz),
                "--save-edges", str(tsv),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PGPBA" in out
        assert npz.exists() and tsv.exists()

    def test_pgsk(self, seed_pcap, capsys):
        rc = main(
            [
                "generate", str(seed_pcap),
                "--algorithm", "pgsk",
                "--edges", "3000",
            ]
        )
        assert rc == 0
        assert "PGSK" in capsys.readouterr().out

    def test_roundtrip_veracity(self, seed_pcap, tmp_path, capsys):
        seed_npz = tmp_path / "seed.npz"
        syn_npz = tmp_path / "syn.npz"
        main(["analyze", str(seed_pcap), "--save", str(seed_npz)])
        main(
            [
                "generate", str(seed_pcap),
                "--edges", "4000", "--fraction", "0.5",
                "--save-npz", str(syn_npz),
            ]
        )
        capsys.readouterr()
        rc = main(["veracity", str(seed_npz), str(syn_npz)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degree veracity" in out


class TestDetect:
    def test_clean_capture(self, seed_pcap, capsys):
        rc = main(
            ["detect", str(seed_pcap), "--baseline", str(seed_pcap)]
        )
        assert rc == 0
        assert "no anomalies" in capsys.readouterr().out

    def test_attack_capture(self, seed_pcap, tmp_path, capsys):
        from repro.pcap.reader import PcapReader
        from repro.pcap.writer import write_pcap
        from repro.trace import attacks
        from repro.trace.hosts import ipv4

        with PcapReader(seed_pcap) as r:
            frames = [(rec.timestamp, bytes(data)) for rec, data in r]
        gt = attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5),
            victim_ip=ipv4(10, 2, 0, 2),
            start_time=frames[0][0] + 2.0,
        )
        mixed = sorted(frames + gt.frames, key=lambda f: f[0])
        attacked = tmp_path / "attacked.pcap"
        write_pcap(attacked, mixed)

        rc = main(
            ["detect", str(attacked), "--baseline", str(seed_pcap)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "syn_flood" in out or "tcp_flood" in out
        assert "10.2.0.2" in out


class TestEngineInfo:
    def test_defaults(self, capsys):
        rc = main(["engine-info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[default]") >= 6
        # Removed settings (the socket backend's and the out-of-core
        # layer's among them) stay gone.
        for gone in ("heartbeat timeout", "max inflight", "wire codec",
                     "task batch", "fetch prefetch", "[cluster]",
                     "memory budget", "spill dir",
                     "target partition bytes", "fusion"):
            assert gone not in out
        assert not re.search(r"^workers\s*:", out, re.M)

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "2")
        monkeypatch.setenv("REPRO_EXECUTOR", "pool")
        rc = main(["engine-info", "--workers", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"^local workers\s*: 5\s+\[flag\]$", out, re.M)
        assert "[env REPRO_EXECUTOR]" in out

    def test_reports_no_codec_or_shuffle_row(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LOCAL_WORKERS", raising=False)
        assert main(["engine-info"]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"^local workers\s*: CPU count\s+\[default\]", out, re.M
        )
        assert not re.search(r"^(block codec|shuffle)\b", out, re.M)

    def test_flag_source(self, capsys):
        assert main(["engine-info", "--workers", "3"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"local workers\s*: 3\s+\[flag\]", out)

    def test_env_source(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "4")
        assert main(["engine-info"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"local workers\s*: 4\b", out)
        assert "[env REPRO_LOCAL_WORKERS]" in out

    def test_every_setting_is_printed_with_its_own_source(
        self, monkeypatch, capsys
    ):
        from repro.config import SETTINGS

        for setting in SETTINGS.values():
            monkeypatch.delenv(setting.env, raising=False)
        monkeypatch.setenv("REPRO_EXECUTOR", "pool")
        monkeypatch.setenv("REPRO_QUERY_CACHE", "16")
        rc = main(
            ["engine-info", "--nodes", "1", "--workers", "3",
             "--lateness", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in SETTINGS:
            assert re.search(rf"^{name.replace('_', ' ')}\s*: ", out, re.M)

        def row(label, value, source):
            pattern = rf"^{label}\s*: {value}\s+\[{source}\]$"
            return re.search(pattern, out, re.M)

        # An explicit flag is a flag even when it repeats the default.
        assert row("nodes", "1", "flag") and row("cores", "12", "default")
        assert row("local workers", "3", "flag")
        assert row("executor", "pool", "env REPRO_EXECUTOR")
        assert row("query cache", "16 entries", "env REPRO_QUERY_CACHE")
        assert row("stream lateness", "2 s", "flag")

    @pytest.mark.parametrize("text", ["3", "+3", " 3 "])
    def test_workers_count_feeds_local_workers(self, text, capsys):
        assert main(["engine-info", "--workers", text]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^local workers\s*: 3\s+\[flag\]$", out, re.M)

    @pytest.mark.parametrize(
        ("flag", "removed", "choices"),
        [
            ("--executor", "processes", "'serial', 'pool'"),
            ("--executor", "cluster", "'serial', 'pool'"),
            ("--executor", "threads", "'serial', 'pool'"),
            ("REPRO_EXECUTOR", "cluster", "serial, pool"),
            ("REPRO_EXECUTOR", "threads", "serial, pool"),
        ],
    )
    def test_removed_values_rejected(
        self, flag, removed, choices, capsys, monkeypatch
    ):
        if not flag.startswith("--"):  # an environment variable
            monkeypatch.setenv(flag, removed)
            with pytest.raises(ValueError) as exc:
                main(["engine-info"])
            assert str(exc.value) == (
                f"{flag} / --executor must be one of {choices}, "
                f"got '{removed}'"
            )
            return
        with pytest.raises(SystemExit) as exc:
            main(["engine-info", flag, removed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{removed}'" in err and choices in err

    @pytest.mark.parametrize(
        "flags", [["--memory-budget", "1KB"], ["--spill-dir", "spill"]]
    )
    def test_generate_rejects_budget_flags(self, seed_pcap, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", str(seed_pcap), "--edges", "3000", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStream:
    def test_bounded_session_prints_stats(self, capsys):
        rc = main(
            [
                "stream",
                "--duration", "12", "--session-rate", "30",
                "--queue-capacity", "4", "--window", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # Resolved knobs with their sources, engine-info style.
        assert re.search(r"stream window\s*: 4 s\s+\[flag\]", out)
        assert re.search(r"stream lateness\s*: auto\s+\[default\]", out)
        assert re.search(r"stream queue\s*: 4\s+\[flag\]", out)
        # The StreamStats block and the detection report.
        assert "events/sec" in out
        assert "queue source→assembly" in out
        assert "depth high-water" in out
        assert "time-to-detection:" in out
        assert "syn_flood" in out and "host_scan" in out
        assert "live graph" in out

    def test_env_sources_reported(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STREAM_WINDOW", "2.5")
        rc = main(
            [
                "stream",
                "--duration", "6", "--session-rate", "20",
                "--attacks", "none",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(
            r"stream window\s*: 2.5 s\s+\[env REPRO_STREAM_WINDOW\]", out
        )

    def test_replay_npz(self, tmp_path, capsys):
        from repro.core.pipeline import packets_from
        from repro.netflow import FlowTable, assemble_flows
        from repro.trace import synthesize_seed_packets

        frames = synthesize_seed_packets(
            duration=6.0, session_rate=25, seed=3
        )
        table = FlowTable.from_records(
            list(assemble_flows(packets_from(frames)))
        )
        path = tmp_path / "flows.npz"
        table.save_npz(path)
        rc = main(["stream", "--replay", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert str(path) in out
        assert "events/sec" in out

    def test_unknown_attack_rejected(self, capsys):
        rc = main(["stream", "--attacks", "slowloris"])
        assert rc == 2
        assert "unknown attacks" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
