"""``repro.config``: the one settings table, driven row by row.

Every test below is parametrised over ``SETTINGS`` so a new row is
covered the moment it is declared, and a frozen expectation pins that
the table still holds exactly the knobs (names, flags, keywords,
defaults) the program shipped with.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config
from repro.config import SETTINGS

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

# env -> (flag, constructor keyword, default): the 7 knobs, frozen.
EXPECTED = {
    "REPRO_EXECUTOR": ("--executor", "executor", "serial"),
    "REPRO_LOCAL_WORKERS": ("--workers", "local_workers", None),
    "REPRO_QUERY_THREADS": ("--threads", "threads", None),
    "REPRO_QUERY_CACHE": ("--cache-size", "cache_size", 1024),
    "REPRO_STREAM_QUEUE": ("--queue-capacity", "queue_capacity", 8),
    "REPRO_STREAM_WINDOW": ("--window", "window_seconds", 5.0),
    "REPRO_STREAM_LATENESS": ("--lateness", "lateness", None),
}

# name -> (env text, its value, explicit argument, its value, rejected
# values).  The env and argument values differ from each other and from
# the default, so precedence is observable.
CASES = {
    "executor": ("threads", "threads", "POOL", "pool",
                 ["processes", "bogus", "cluster"]),
    "local_workers": ("3", 3, 5, 5, ["lots", "0", -1, 2.7, True, "2.5"]),
    "query_threads": ("7", 7, 3, 3, ["abc", "0"]),
    "query_cache": ("9", 9, 0, 0, ["abc", "-1", True]),
    "stream_queue": ("3", 3, 16, 16, ["zero", "0"]),
    "stream_window": ("2.5", 2.5, "10", 10.0,
                      ["wide", "0", -1, "nan", "inf", "-inf"]),
    "stream_lateness": ("1.5", 1.5, "auto", None,
                        ["late", -0.5, "nan", "inf", "-inf"]),
}

NAMES = list(SETTINGS)
REJECTED = [(name, bad) for name in NAMES for bad in CASES[name][4]]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for setting in SETTINGS.values():
        monkeypatch.delenv(setting.env, raising=False)


class TestTable:
    def test_exactly_the_shipped_knobs(self):
        assert {
            s.env: (s.flag, s.kwarg, s.default) for s in SETTINGS.values()
        } == EXPECTED
        assert len(SETTINGS) == 7
        assert set(CASES) == set(SETTINGS)
        assert all(name == s.name for name, s in SETTINGS.items())

    def test_choice_rows_equal_the_live_sets(self):
        from repro.engine import available_backends

        assert SETTINGS["executor"].parse.values == available_backends()

    def test_kwargs_exist_on_their_constructors(self):
        from repro.engine import ClusterContext
        from repro.serve import QueryServer
        from repro.stream import StreamPipeline

        owners = {
            "engine": ClusterContext, "serve": QueryServer,
            "stream": StreamPipeline,
        }
        assert {c.__name__ for c in owners.values()} == set(
            config._CONSTRUCTORS.values()
        )
        for s in SETTINGS.values():
            if s.kwarg is not None:
                assert s.kwarg in inspect.signature(owners[s.layer]).parameters

    def test_config_is_a_leaf(self):
        tree = ast.parse((SRC / "config.py").read_text())
        imported = {
            node.module if isinstance(node, ast.ImportFrom) else a.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names
        }
        assert not {m for m in imported if m and m.startswith("repro")}

    def test_only_config_reads_the_environment(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                reads_env = (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in ("environ", "getenv")
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "os"
                    and {a.name for a in node.names} & {"environ", "getenv"}
                )
                if reads_env:
                    offenders.append(f"{rel}:{node.lineno}")
        assert not offenders

    def test_every_setting_names_its_evidence(self):
        """A knob exists because something measured or tested needs
        more than one value of it: a ``BENCHMARK.json`` workload, or a
        tier-1 test id that pytest collects."""
        workloads = {
            w["name"]
            for w in json.loads((REPO / "BENCHMARK.json").read_text())[
                "workloads"
            ]
        }
        test_ids = set()
        for s in SETTINGS.values():
            if "::" in s.evidence:
                test_ids.add(s.evidence)
            else:
                assert s.evidence in workloads, (s.name, s.evidence)
        collected = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only",
             "-p", "no:cacheprovider", *sorted(test_ids)],
            cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        # Exit status 4 names every id pytest could not find.
        assert collected.returncode == 0, collected.stdout + collected.stderr

    def test_readme_flags_table_matches_settings(self):
        readme = (REPO / "README.md").read_text()
        # Each generated row carries the env name, flag, constructor
        # keyword, default and help text of one setting.
        rows = config.flags_table().splitlines()
        assert len(rows) == 2 + len(SETTINGS)
        for row in rows:
            assert row in readme


class TestResolve:
    @pytest.mark.parametrize("name", NAMES)
    def test_default_when_unset(self, name):
        assert config.resolve(name) == SETTINGS[name].default
        assert config.source(name, False) == "default"

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_env_is_unset(self, name, blank, monkeypatch):
        monkeypatch.setenv(SETTINGS[name].env, blank)
        assert config.resolve(name) == SETTINGS[name].default
        assert config.source(name, False) == "default"

    @pytest.mark.parametrize("name", NAMES)
    def test_env_beats_default(self, name, monkeypatch):
        text, value = CASES[name][:2]
        monkeypatch.setenv(SETTINGS[name].env, text)
        assert config.resolve(name) == value != SETTINGS[name].default
        assert config.source(name, False) == f"env {SETTINGS[name].env}"

    @pytest.mark.parametrize("name", NAMES)
    def test_argument_beats_env(self, name, monkeypatch):
        text, env_value, arg, arg_value, _ = CASES[name]
        monkeypatch.setenv(SETTINGS[name].env, text)
        assert config.resolve(name, arg) == arg_value != env_value
        assert config.source(name, True) == "flag"

    @pytest.mark.parametrize("name", NAMES)
    def test_explicit_blank_never_reads_the_environment(
        self, name, monkeypatch
    ):
        # Only a blank *environment* value is "unset": an explicit ""
        # goes to the parser, which rejects it, instead of letting the
        # environment win.
        setting = SETTINGS[name]
        monkeypatch.setenv(setting.env, CASES[name][0])
        with pytest.raises(ValueError, match=setting.env):
            config.resolve(name, "")

    @pytest.mark.parametrize(("name", "bad"), REJECTED)
    def test_rejection_names_the_variable_and_flag(
        self, name, bad, monkeypatch
    ):
        setting = SETTINGS[name]
        with pytest.raises(ValueError) as as_argument:
            config.resolve(name, bad)
        assert setting.env in str(as_argument.value)
        assert repr(bad) in str(as_argument.value)
        if setting.flag:
            assert setting.flag in str(as_argument.value)
        if isinstance(bad, str):
            monkeypatch.setenv(setting.env, bad)
            with pytest.raises(ValueError, match=setting.env):
                config.resolve(name)

    @pytest.mark.parametrize(
        "variable",
        ["REPRO_WORKERS", "REPRO_SPECULATION", "REPRO_MEMORY_BUDGET",
         "REPRO_SPILL_DIR", "REPRO_FAULTS", "REPRO_MAX_TASK_RETRIES",
         "REPRO_FUSION", "REPRO_TARGET_PARTITION_BYTES"],
    )
    def test_unknown_variable_is_an_error(self, variable, monkeypatch):
        """A ``REPRO_*`` variable that names no row (one a removed knob
        used, say) fails every read of the environment instead of being
        silently ignored."""
        from repro.cli import main
        from repro.engine import ClusterContext

        monkeypatch.setenv(variable, "on")
        with pytest.raises(ValueError, match=variable) as exc:
            main(["engine-info"])
        assert "REPRO_EXECUTOR" in str(exc.value)  # lists the valid ones
        with pytest.raises(ValueError, match=variable):
            ClusterContext()
        # An explicit value reads no environment.
        assert config.resolve("executor", "pool") == "pool"

    @pytest.mark.parametrize(
        ("name", "value", "expected"),
        [("local_workers", 3.0, 3), ("query_cache", 0.0, 0)],
    )
    def test_integral_floats_are_whole_numbers(self, name, value, expected):
        resolved = config.resolve(name, value)
        assert resolved == expected and type(resolved) is int

    def test_parsed_values_resolve_to_themselves(self):
        """Constructors may be handed an already-resolved value."""
        for name, (_, value, _, arg_value, _) in CASES.items():
            for v in (value, arg_value):
                if v is not None:
                    assert config.resolve(name, v) == v


class TestAddArguments:
    def _parser(self, names=None):
        parser = argparse.ArgumentParser(prog="t")
        config.add_arguments(parser, names)
        return parser

    def test_flags_default_to_not_given(self):
        args = self._parser().parse_args([])
        for s in SETTINGS.values():
            if s.flag:
                assert getattr(args, s.dest) is None

    def test_text_is_kept_as_typed(self):
        args = self._parser().parse_args(
            ["--lateness", "auto", "--cache-size", "4", "--executor", "pool"]
        )
        # The constructor's resolve() is the one place text is read.
        assert args.lateness == "auto"
        assert args.cache_size == "4"
        assert args.executor == "pool"

    def test_workers_flag_takes_a_count_only(self, capsys):
        parser = self._parser(["local_workers"])
        assert parser.parse_args(["--workers", "3"]).workers == "3"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--workers", "127.0.0.1:1"])
        assert exc.value.code == 2
        assert "REPRO_LOCAL_WORKERS" in capsys.readouterr().err

    def test_only_named_settings_get_flags(self):
        parser = self._parser(["query_threads", "local_workers"])
        assert parser.parse_args(["--threads", "2"]).threads == "2"
        with pytest.raises(SystemExit):
            parser.parse_args(["--cache-size", "1"])

    @pytest.mark.parametrize(
        ("flag", "bad", "env"),
        [
            ("--cache-size", "many", "REPRO_QUERY_CACHE"),
            ("--lateness", "late", "REPRO_STREAM_LATENESS"),
        ],
    )
    def test_bad_text_is_an_argparse_error(self, flag, bad, env, capsys):
        with pytest.raises(SystemExit) as exc:
            self._parser().parse_args([flag, bad])
        assert exc.value.code == 2
        assert env in capsys.readouterr().err

    def test_removed_flags_are_rejected(self, capsys):
        for argv in (
            ["--task-batch", "4"], ["--speculation"],
            ["--block-codec", "zlib"], ["--memory-budget", "8MB"],
            ["--spill-dir", "/tmp/spill"], ["--faults", "{}"],
            ["--max-task-retries", "3"], ["--no-fusion"],
            ["--target-partition-bytes", "4MB"],
        ):
            with pytest.raises(SystemExit) as exc:
                self._parser().parse_args(argv)
            assert exc.value.code == 2
            assert (
                f"unrecognized arguments: {' '.join(argv)}"
                in capsys.readouterr().err
            )


def test_documented_flags_table_command_is_clean():
    """The command README and DESIGN give for printing the flags table
    runs warning-free and prints exactly :func:`flags_table`."""
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "from repro.config import flags_table; print(flags_table())"],
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stderr == ""
    assert out.stdout == config.flags_table() + "\n"
