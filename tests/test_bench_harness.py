"""Tests for the shared benchmark harness utilities."""

import numpy as np
import pytest

from repro.bench import cached_seed, default_cluster, format_table
from repro.bench.tables import print_series


class TestFormatTable:
    def test_alignment_and_rules(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        # all rows share one width
        assert len({len(line) for line in lines}) == 1

    def test_float_formatting(self):
        out = format_table(["x"], [[1e-9], [0.0], [123456.0]])
        assert "1e-09" in out.replace("1.000e-09", "1e-09") or "e-09" in out
        assert "0" in out
        assert "e+05" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_print_series(self, capsys):
        print_series("demo", ["x"], [[1]])
        out = capsys.readouterr().out
        assert "== demo ==" in out
        assert "1" in out


class TestSeedCache:
    def test_cached_seed_is_cached(self):
        a = cached_seed()
        b = cached_seed()
        assert a is b

    def test_cached_seed_shape(self):
        b = cached_seed()
        assert b.graph.n_edges > 500
        assert b.analysis.n_edges == b.graph.n_edges

    def test_parameterised_seed_differs(self):
        a = cached_seed()
        c = cached_seed(duration=10.0, session_rate=30.0)
        assert c.graph.n_edges != a.graph.n_edges


class TestDefaultCluster:
    def test_paper_configuration(self):
        ctx = default_cluster()
        assert ctx.n_nodes == 60
        assert ctx.scheduler.executor_cores == 12
        assert ctx.default_partitions == 2 * 12 * 60

    def test_override(self):
        ctx = default_cluster(n_nodes=10)
        assert ctx.n_nodes == 10
