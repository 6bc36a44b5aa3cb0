"""The block container + the budgeted ``distinct()`` exchange.

The contract under test: that spilled blocks live in ``.blk`` files of
memory-mapped chunks, and whether ``distinct()`` exchanges in memory or
through file segments (decided by the memory budget), are pure
*physical* matters — for any backend x budget the engine produces
byte-identical datasets and identical simulated stage structure, while
only disk bytes, peak memory and wall-clock encode/decode time change.

Layers covered:

* the ``chunk_bytes`` / ``chunk_rows`` arguments: accepted and rejected
  values;
* round-trips over awkward shapes (empty, 0-d, 2-D, big-endian, zero
  columns) plus a Hypothesis sweep over arbitrary dtype/shape arrays,
  and chunk-size invariance;
* chunked (streaming-append) writers;
* the memory-mapped reload fast path, and the refusal of footers that
  name a compression (an older build's ``lzma`` or ``zlib``);
* ``distinct()`` equivalence of the budgeted file-segment exchange and
  the in-memory one on every available backend, for single and pair
  keys — output *and* stage records;
* worst-case reduce skew (every row hashed to one reducer) as a
  correctness case, and the budget as a bound on traced peak memory for
  a 2x10^6-row pair-key ``distinct()``;
* spill file names and disk accounting;
* ``engine-info`` flag/env sources, and no codec row.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cli import main
from repro.core import PGPBA, PGSK
from repro.engine import BlockCodec, ClusterContext, available_backends
from repro.engine.storage.codecs import (
    read_arrays,
    read_block_file,
    read_named_file,
)
from repro.engine.stream import iter_repeat_chunks

BACKENDS = tuple(available_backends())


def _digest(cols) -> str:
    h = hashlib.sha256()
    for c in cols:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _stage_structure(ctx) -> list:
    return [(t.stage, t.partition, t.bytes_out) for t in ctx.metrics.tasks]


# ----------------------------------------------------------------------
class TestResolution:
    """The chunk-size arguments that used to be settings."""

    def test_chunk_bytes_argument(self):
        from repro.engine.storage.codecs import CHUNK_BYTES

        assert BlockCodec().chunk_bytes == CHUNK_BYTES == 1 << 20
        assert BlockCodec(chunk_bytes=4096).chunk_bytes == 4096
        with pytest.raises(ValueError, match="chunk_bytes"):
            BlockCodec(chunk_bytes=0)

    def test_chunk_rows_argument(self):
        values, counts = np.arange(10), np.full(10, 3)

        def chunk_lengths(**kwargs):
            return [
                len(chunk)
                for (chunk,) in iter_repeat_chunks((values,), counts, **kwargs)
            ]

        assert chunk_lengths() == [30]  # default: 262144 rows per chunk
        assert chunk_lengths(chunk_rows=12) == [12, 12, 6]
        assert chunk_lengths(chunk_rows=20) == [20, 10]
        with pytest.raises(ValueError, match="chunk_rows"):
            chunk_lengths(chunk_rows=0)

# ----------------------------------------------------------------------
def _cases() -> dict:
    rng = np.random.default_rng(0)
    return {
        "ints": (np.arange(257, dtype=np.int64),
                 rng.integers(0, 1 << 40, 257)),
        "mixed": (np.arange(50, dtype=np.int32),
                  rng.random(50).astype(np.float32),
                  rng.integers(0, 255, 50).astype(np.uint8)),
        "empty": (np.empty(0, np.int64), np.empty(0, np.float64)),
        "zerod": (np.array(3.5), np.array(7, dtype=np.int16)),
        "twod": (np.arange(24, dtype=np.float64).reshape(4, 6),),
        "none": (),
        "bigendian": (np.arange(9, dtype=np.int32).astype(">i4"),),
        "bool": (np.array([True, False, True]),),
    }


class TestCodecRoundTrip:
    @pytest.mark.parametrize("case", sorted(_cases()))
    def test_write_read(self, tmp_path, case):
        cols = _cases()[case]
        codec = BlockCodec()
        path = str(tmp_path / "b.blk")
        info = codec.write(path, cols)
        assert info.rows == (int(cols[0].shape[0]) if cols and
                             cols[0].ndim else 0) or info.rows >= 0
        got = read_block_file(path)
        assert len(got) == len(cols)
        for g, c in zip(got, cols):
            assert g.dtype == c.dtype
            assert g.shape == c.shape
            np.testing.assert_array_equal(g, c)

    def test_named_round_trip(self, tmp_path):
        codec = BlockCodec()
        path = str(tmp_path / "n.blk")
        arrays = {"alpha": np.arange(10), "beta": np.linspace(0, 1, 7)}
        info = codec.write_named(path, arrays)
        assert info.disk_bytes == os.path.getsize(path)
        assert info.logical_bytes == sum(a.nbytes for a in arrays.values())
        got = read_named_file(path)
        assert set(got) == set(arrays)
        for k, v in arrays.items():
            np.testing.assert_array_equal(got[k], v)
        assert {k: v.dtype for k, v in got.items()} == {
            k: v.dtype for k, v in arrays.items()
        }

    def test_chunked_writer_round_trip(self, tmp_path):
        codec = BlockCodec()
        path = str(tmp_path / "c.blk")
        rng = np.random.default_rng(1)
        a = rng.integers(0, 1 << 30, 10_000)
        b = rng.random(10_000)
        w = codec.open_writer(path)
        for lo in range(0, 10_000, 1_337):
            hi = min(lo + 1_337, 10_000)
            w.append_columns((a[lo:hi], b[lo:hi]))
        info = w.close()
        assert info.rows == 10_000
        got = read_block_file(path)
        np.testing.assert_array_equal(got[0], a)
        np.testing.assert_array_equal(got[1], b)

    def test_empty_chunked_writer(self, tmp_path):
        codec = BlockCodec()
        path = str(tmp_path / "e.blk")
        w = codec.open_writer(path)
        w.append_columns((np.empty(0, np.int64), np.empty(0, np.float32)))
        info = w.close()
        assert info.rows == 0
        got = read_block_file(path)
        assert got[0].dtype == np.int64 and got[0].size == 0
        assert got[1].dtype == np.float32 and got[1].size == 0

    def test_chunk_bytes_never_changes_what_is_read(self, tmp_path):
        """One payload chunk or hundreds: the arrays read back are the
        same bytes, and stay memory-mapped."""
        cols = _cases()["ints"]
        digests = set()
        for chunk_bytes in (8, 100, 1 << 20):
            path = str(tmp_path / f"k{chunk_bytes}.blk")
            BlockCodec(chunk_bytes=chunk_bytes).write(path, cols)
            got = read_block_file(path)
            assert isinstance(got[0], np.memmap)
            digests.add(_digest(got))
        assert digests == {_digest(cols)}


def test_mmap_codec_memory_maps(tmp_path):
    codec = BlockCodec()
    path = str(tmp_path / "m.blk")
    arr = np.arange(4_096, dtype=np.int64)
    codec.write(path, (arr,))
    got = read_block_file(path)[0]
    assert isinstance(got, np.memmap)
    np.testing.assert_array_equal(np.asarray(got), arr)


def test_unknown_compression_tag_names_tag_and_file(tmp_path):
    """A block file whose footer names a compression this build cannot
    decode (an lzma or zlib file from an older build) is rejected up
    front, not misread as uncompressed."""
    for tag in ("lzma", "zlib"):
        footer = json.dumps({
            "compression": tag,
            "arrays": [{"name": "c0", "descr": "<i8", "shape": [4],
                        "chunks": [[0, 8, 32]]}],
        }).encode()
        path = tmp_path / f"old-{tag}.blk"
        path.write_bytes(
            b"\x00" * 8 + footer + len(footer).to_bytes(8, "little")
            + b"RBLK01"
        )
        for read in (
            read_block_file,
            read_named_file,
            lambda p: read_arrays(p, ["c0"]),
        ):
            with pytest.raises(ValueError, match=f"old-{tag}.blk.*'{tag}'"):
                read(str(path))


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(
        [np.int8, np.uint16, np.int32, np.int64, np.uint64,
         np.float32, np.float64, np.bool_]
    ),
)
def test_codec_round_trip_property(tmp_path_factory, data, dtype):
    """Any dtype/shape combination — including empty and 0-d — survives
    a write/read cycle bit-exactly."""
    shape = data.draw(
        st.one_of(
            st.just(()),
            st.tuples(st.integers(0, 200)),
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
        )
    )
    arr = data.draw(hnp.arrays(dtype=dtype, shape=shape))
    codec = BlockCodec()
    tmp = tmp_path_factory.mktemp("prop")
    path = str(tmp / "p.blk")
    codec.write(path, (arr,))
    got = read_block_file(path)[0]
    assert got.dtype == arr.dtype
    assert got.shape == arr.shape
    np.testing.assert_array_equal(got, arr)


# ----------------------------------------------------------------------
def _dup_columns(n_rows: int = 6_000, n_keys: int = 251):
    rng = np.random.default_rng(11)
    k1 = rng.integers(0, n_keys, n_rows).astype(np.int64)
    k2 = rng.integers(0, 7, n_rows).astype(np.int64)
    payload = rng.integers(0, 1 << 50, n_rows).astype(np.int64)
    return k1, k2, payload


def _first_occurrences(col: np.ndarray) -> np.ndarray:
    return col[np.sort(np.unique(col, return_index=True)[1])]


class TestBudgetedDistinct:
    """The file-segment exchange a memory budget switches on against the
    in-memory one."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("key_columns", [(0,), (0, 1)])
    def test_matches_unbudgeted(self, backend, key_columns):
        cols = _dup_columns()

        def run(**ctx_kw):
            ctx = ClusterContext(n_nodes=4, **ctx_kw)
            out = ctx.parallelize(cols, n_partitions=7).distinct(
                key_columns=key_columns
            ).collect()
            stages = _stage_structure(ctx)
            ctx.close()
            return out, stages

        ref, ref_stages = run(executor="serial")
        got, got_stages = run(executor=backend, memory_budget_bytes=1 << 14)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert got_stages == ref_stages

    @pytest.mark.parametrize("budget", [None, 1 << 16])
    def test_all_rows_to_one_reducer(self, budget):
        """Worst-case reduce skew: every partition holds the same keys
        (unique *within* the partition, so the map-side combiner removes
        nothing) and every key is 0 mod n_parts, so all rows land on
        reducer 0 — which must keep each key's first occurrence, in
        input order, whether it read its bucket from memory or from
        segment files."""
        n_parts = 8
        keys_per = 100_000
        rng = np.random.default_rng(5)
        base = rng.permutation(keys_per).astype(np.int64) * n_parts
        col = np.concatenate(
            [np.roll(base, 17 * i) for i in range(n_parts)]
        )
        with ClusterContext(
            n_nodes=n_parts, executor="serial", memory_budget_bytes=budget
        ) as ctx:
            rdd = ctx.parallelize((col,), n_partitions=n_parts).distinct(
                key_columns=(0,)
            )
            sizes = rdd.partition_sizes()
            (out,) = rdd.collect()
        assert sizes[0] == keys_per and not sizes[1:].any()
        np.testing.assert_array_equal(out, _first_occurrences(col))

    def test_traced_peak_stays_under_the_budget(self, tmp_path):
        """The bound the budget exists for, at PGSK's shape: 2x10^6
        pair-key rows (32 MB) with a handful of duplicates pass through
        ``distinct()`` under an 8 MiB budget without the driver process
        ever holding 8 MiB of traced allocations.  Serial, because
        tracemalloc only sees this process."""
        budget = 8 << 20
        n_rows = 2_000_000
        rng = np.random.default_rng(16)
        src = rng.integers(0, 1 << 20, n_rows).astype(np.int64)
        dst = rng.integers(0, 1 << 20, n_rows).astype(np.int64)
        src[-4:], dst[-4:] = src[:4], dst[:4]
        expected = np.unique(src * (1 << 20) + dst).size
        with ClusterContext(
            n_nodes=4, executor="serial", memory_budget_bytes=budget,
            spill_dir=tmp_path,
        ) as ctx:
            rdd = ctx.parallelize((src, dst), n_partitions=32)
            del src, dst
            tracemalloc.start()
            try:
                out = rdd.distinct(key_columns=(0, 1))
                count = out.count()
                _, peak_bytes = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert count == expected < n_rows
        assert peak_bytes < budget, peak_bytes


# ----------------------------------------------------------------------
class TestSpillFiles:
    def test_spill_files_are_blk(self, tmp_path):
        ctx = ClusterContext(
            n_nodes=2, memory_budget_bytes=1_000, spill_dir=tmp_path,
        )
        rdd = ctx.parallelize(
            (np.arange(5_000, dtype=np.int64),), n_partitions=4
        ).persist()
        rdd.count()
        spilled = [
            p for p in (ctx.storage.spill_dir or tmp_path).rglob("*")
            if p.is_file()
        ]
        assert spilled, "budget of 1 kB must force spills"
        assert all(p.suffix == ".blk" for p in spilled), spilled
        rdd.unpersist()
        ctx.close()

    def test_disk_accounting(self, tmp_path):
        ctx = ClusterContext(
            n_nodes=2, memory_budget_bytes=1_000, spill_dir=tmp_path,
        )
        cols = (np.zeros(50_000, dtype=np.int64),)
        rdd = ctx.parallelize(cols, n_partitions=2).persist()
        rdd.count()
        stats = ctx.storage.stats
        # uncompressed chunks: the files are the arrays plus footers
        assert stats.disk_logical_bytes == cols[0].nbytes
        assert 0 < stats.disk_bytes - stats.disk_logical_bytes < 4096
        assert ctx.metrics.storage_disk_logical_bytes == (
            stats.disk_logical_bytes
        )
        assert ctx.metrics.storage_codec_seconds >= 0.0
        rdd.unpersist()
        ctx.close()

# ----------------------------------------------------------------------
class TestGeneratorDigestMatrix:
    """Backend x budget never changes generator output."""

    @pytest.mark.parametrize("algo", [PGPBA, PGSK])
    def test_digests_invariant(self, algo, seed_graph, seed_analysis,
                               tmp_path):
        def run(**ctx_kw):
            ctx = ClusterContext(n_nodes=4, spill_dir=tmp_path, **ctx_kw)
            gen = algo(seed=3)
            res = gen.generate(
                seed_graph, seed_analysis, 2_000, context=ctx
            )
            g = res.graph
            d = _digest(
                (g.src, g.dst)
                + tuple(g.edge_properties[k]
                        for k in sorted(g.edge_properties))
            )
            stages = _stage_structure(ctx)
            ctx.close()
            return d, stages

        base = run(executor="serial")
        for backend in BACKENDS:
            assert run(executor=backend) == base, backend
            got = run(executor=backend, memory_budget_bytes=1 << 14)
            assert got == base, backend


# ----------------------------------------------------------------------
class TestStreamHelpers:
    def test_iter_repeat_chunks_matches_np_repeat(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 99, 400).astype(np.int64)
        counts = rng.integers(0, 9, 400).astype(np.int64)
        chunks = list(
            iter_repeat_chunks((values, values * 2), counts, chunk_rows=64)
        )
        got0 = np.concatenate([c[0] for c in chunks])
        got1 = np.concatenate([c[1] for c in chunks])
        np.testing.assert_array_equal(got0, np.repeat(values, counts))
        np.testing.assert_array_equal(got1, np.repeat(values * 2, counts))
        assert all(c[0].size <= 64 for c in chunks)

    def test_iter_repeat_chunks_empty(self):
        chunks = list(
            iter_repeat_chunks(
                (np.empty(0, np.int64),), np.empty(0, np.int64)
            )
        )
        assert len(chunks) == 1
        assert chunks[0][0].size == 0
        assert chunks[0][0].dtype == np.int64


# ----------------------------------------------------------------------
class TestEngineInfoCli:
    def test_reports_no_codec_or_shuffle_row(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        assert main(["engine-info"]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"^memory budget\s*: unlimited\s+\[default\]", out, re.M
        )
        assert not re.search(r"^(block codec|shuffle)\b", out, re.M)

    def test_flag_source(self, capsys):
        assert main(["engine-info", "--memory-budget", "8MB"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"memory budget\s*: 8\.0 MiB\s+\[flag\]", out)

    def test_env_source(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "8MB")
        assert main(["engine-info"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"memory budget\s*: 8\.0 MiB\b", out)
        assert "[env REPRO_MEMORY_BUDGET]" in out
