"""Block codecs + external-sort shuffle.

The contract under test: the on-disk representation of spilled blocks
(raw ``.npz`` vs chunk-compressed columnar ``.blk``) and the shuffle
strategy of ``distinct()`` (hash exchange vs external merge sort) are
pure *physical* knobs — for any codec x shuffle x backend x budget the
engine produces byte-identical datasets and identical simulated stage
structure, while only disk bytes, peak reduce memory and wall-clock
encode/decode time change.

Layers covered:

* the ``block_codec`` / ``shuffle`` / ``codec_chunk_bytes`` /
  chunk-rows settings: accepted and rejected values;
* per-codec round-trips over awkward shapes (empty, 0-d, 2-D,
  big-endian, zero columns) plus a Hypothesis sweep over arbitrary
  dtype/shape arrays;
* chunked (streaming-append) writers and ``iter_column_chunks``
  read-back;
* the ``mmap`` codec's memory-mapped reload fast path;
* external-sort ``distinct()`` equivalence against the hash exchange on
  every available backend, with and without a memory budget, for single
  and pair keys — output *and* stage records;
* the bounded-reduce-memory property of the external sort, asserted
  with ``tracemalloc`` on a worst-case skew (every row hashed to one
  reducer);
* spill filename extensions and compression accounting;
* the ``engine-info`` codec/shuffle rows.
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
from repro.engine import (
    CODECS,
    DEFAULT_CODEC,
    ClusterContext,
    available_backends,
    get_codec,
)
from repro.engine.storage.codecs import (
    array_dtypes,
    iter_column_chunks,
    read_arrays,
    read_block_file,
    read_named_file,
)
from repro.engine.stream import iter_repeat_chunks

BACKENDS = tuple(available_backends())
CODEC_NAMES = tuple(CODECS)


def _digest(cols) -> str:
    h = hashlib.sha256()
    for c in cols:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _stage_structure(ctx) -> list:
    return [(t.stage, t.partition, t.bytes_out) for t in ctx.metrics.tasks]


# ----------------------------------------------------------------------
class TestResolution:
    """The codec and shuffle settings as ``get_codec``, the context and
    the chunk emitter read them (the per-row precedence table is
    tests/test_config.py)."""

    def test_default_is_raw(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCK_CODEC", raising=False)
        assert get_codec().name == DEFAULT_CODEC == "raw"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_CODEC", "zlib")
        assert get_codec().name == "zlib"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_CODEC", "zlib")
        assert get_codec("mmap").name == "mmap"

    # "lzma" is a removed codec: rejected like any other unknown name.
    @pytest.mark.parametrize("bad", ["gzip", "snappy", "lzma"])
    def test_unknown_codec_rejected(self, bad):
        with pytest.raises(
            ValueError, match="REPRO_BLOCK_CODEC.*raw, zlib, mmap"
        ):
            get_codec(bad)

    def test_empty_means_unset(self, monkeypatch):
        # An explicit "" is the default codec whatever the environment
        # says; it does not fall through to the variable.
        monkeypatch.setenv("REPRO_BLOCK_CODEC", "zlib")
        assert get_codec("").name == DEFAULT_CODEC
        monkeypatch.setenv("REPRO_SHUFFLE", "extsort")
        with ClusterContext(n_nodes=1, executor="serial", shuffle="") as ctx:
            assert ctx.shuffle_strategy == "exchange"

    def test_unknown_env_codec_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_CODEC", "brotli")
        with pytest.raises(ValueError, match="REPRO_BLOCK_CODEC"):
            get_codec()

    def test_shuffle_default_env_arg(self, monkeypatch):
        def strategy(shuffle=None):
            with ClusterContext(
                n_nodes=1, executor="serial", shuffle=shuffle
            ) as ctx:
                return ctx.shuffle_strategy

        monkeypatch.delenv("REPRO_SHUFFLE", raising=False)
        assert strategy() == "exchange"
        monkeypatch.setenv("REPRO_SHUFFLE", "extsort")
        assert strategy() == "extsort"
        assert strategy("exchange") == "exchange"
        with pytest.raises(ValueError, match="REPRO_SHUFFLE"):
            strategy("radix")

    def test_chunk_bytes_parses_sizes(self, monkeypatch):
        zlib_codec = CODECS["zlib"]
        assert zlib_codec(chunk_bytes="64KB").chunk_bytes == 64 * 1024
        assert zlib_codec(chunk_bytes=4096).chunk_bytes == 4096
        with pytest.raises(ValueError, match="REPRO_CODEC_CHUNK_BYTES"):
            zlib_codec(chunk_bytes=0)

    def test_chunk_rows_resolvers(self, monkeypatch):
        values, counts = np.arange(10), np.full(10, 3)

        def chunk_lengths(**kwargs):
            return [
                len(chunk)
                for (chunk,) in iter_repeat_chunks((values,), counts, **kwargs)
            ]

        monkeypatch.delenv("REPRO_EMIT_CHUNK_ROWS", raising=False)
        assert chunk_lengths() == [30]  # default: 262144 rows per chunk
        monkeypatch.setenv("REPRO_EMIT_CHUNK_ROWS", "12")
        assert chunk_lengths() == [12, 12, 6]
        assert chunk_lengths(chunk_rows=20) == [20, 10]
        with pytest.raises(ValueError, match="REPRO_EMIT_CHUNK_ROWS"):
            chunk_lengths(chunk_rows=0)

    def test_context_rejects_bad_codec(self):
        with pytest.raises(ValueError, match="REPRO_BLOCK_CODEC"):
            ClusterContext(n_nodes=1, block_codec="nope")


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


@pytest.mark.parametrize("codec_name", CODEC_NAMES)
class TestCodecRoundTrip:
    @pytest.mark.parametrize("case", sorted(_cases()))
    def test_write_read(self, tmp_path, codec_name, case):
        cols = _cases()[case]
        codec = get_codec(codec_name)
        path = str(tmp_path / f"b{codec.extension}")
        info = codec.write(path, cols)
        assert info.rows == (int(cols[0].shape[0]) if cols and
                             cols[0].ndim else 0) or info.rows >= 0
        got = read_block_file(path)
        assert len(got) == len(cols)
        for g, c in zip(got, cols):
            assert g.dtype == c.dtype
            assert g.shape == c.shape
            np.testing.assert_array_equal(g, c)

    def test_named_round_trip(self, tmp_path, codec_name):
        codec = get_codec(codec_name)
        path = str(tmp_path / f"n{codec.extension}")
        arrays = {"alpha": np.arange(10), "beta": np.linspace(0, 1, 7)}
        info = codec.write_named(path, arrays)
        assert info.disk_bytes == os.path.getsize(path)
        assert info.logical_bytes == sum(a.nbytes for a in arrays.values())
        got = read_named_file(path)
        assert set(got) == set(arrays)
        for k, v in arrays.items():
            np.testing.assert_array_equal(got[k], v)
        assert {k: d for k, d in array_dtypes(path).items()} == {
            k: v.dtype for k, v in arrays.items()
        }

    def test_chunked_writer_round_trip(self, tmp_path, codec_name):
        codec = get_codec(codec_name)
        path = str(tmp_path / f"c{codec.extension}")
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
        # Chunked read-back reassembles the same columns.
        for j, ref in enumerate((a, b)):
            parts = list(iter_column_chunks(path, f"c{j}"))
            np.testing.assert_array_equal(np.concatenate(parts), ref)

    def test_empty_chunked_writer(self, tmp_path, codec_name):
        codec = get_codec(codec_name)
        path = str(tmp_path / f"e{codec.extension}")
        w = codec.open_writer(path)
        w.append_columns((np.empty(0, np.int64), np.empty(0, np.float32)))
        info = w.close()
        assert info.rows == 0
        got = read_block_file(path)
        assert got[0].dtype == np.int64 and got[0].size == 0
        assert got[1].dtype == np.float32 and got[1].size == 0


def test_mmap_codec_memory_maps(tmp_path):
    codec = get_codec("mmap")
    path = str(tmp_path / "m.blk")
    arr = np.arange(4_096, dtype=np.int64)
    codec.write(path, (arr,))
    got = read_block_file(path)[0]
    assert isinstance(got, np.memmap)
    np.testing.assert_array_equal(np.asarray(got), arr)


def test_zlib_compresses_redundant_data(tmp_path):
    cols = (np.zeros(100_000, dtype=np.int64),)
    raw = get_codec("raw").write(str(tmp_path / "r.npz"), cols)
    zl = get_codec("zlib").write(str(tmp_path / "z.blk"), cols)
    assert zl.logical_bytes == raw.logical_bytes == 800_000
    assert zl.disk_bytes < raw.disk_bytes // 10
    assert zl.seconds >= 0.0


def test_unknown_compression_tag_names_tag_and_file(tmp_path):
    """A block file whose footer names a compression this build cannot
    decode (e.g. an lzma checkpoint from an older build) is rejected up
    front, not misread as uncompressed."""
    footer = json.dumps({
        "compression": "lzma",
        "arrays": [{"name": "c0", "descr": "<i8", "shape": [4],
                    "chunks": [[0, 8, 32]]}],
    }).encode()
    path = tmp_path / "old.blk"
    path.write_bytes(
        b"\x00" * 8 + footer + len(footer).to_bytes(8, "little") + b"RBLK01"
    )
    for read in (
        read_block_file,
        read_named_file,
        array_dtypes,
        lambda p: read_arrays(p, ["c0"]),
        lambda p: list(iter_column_chunks(p, "c0")),
    ):
        with pytest.raises(ValueError, match="old.blk.*'lzma'"):
            read(str(path))


@pytest.mark.parametrize("codec_name", CODEC_NAMES)
@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(
        [np.int8, np.uint16, np.int32, np.int64, np.uint64,
         np.float32, np.float64, np.bool_]
    ),
)
def test_codec_round_trip_property(tmp_path_factory, codec_name, data, dtype):
    """Any dtype/shape combination — including empty and 0-d — survives
    a write/read cycle bit-exactly under every codec."""
    shape = data.draw(
        st.one_of(
            st.just(()),
            st.tuples(st.integers(0, 200)),
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
        )
    )
    arr = data.draw(hnp.arrays(dtype=dtype, shape=shape))
    codec = get_codec(codec_name)
    tmp = tmp_path_factory.mktemp("prop")
    path = str(tmp / f"p{codec.extension}")
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


class TestExternalSortDistinct:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("budget", [None, 1 << 14])
    @pytest.mark.parametrize("key_columns", [(0,), (0, 1)])
    def test_matches_exchange(self, backend, budget, key_columns):
        cols = _dup_columns()

        def run(shuffle):
            ctx = ClusterContext(
                n_nodes=4, executor=backend,
                memory_budget_bytes=budget, shuffle=shuffle,
            )
            out = ctx.parallelize(cols, n_partitions=7).distinct(
                key_columns=key_columns
            ).collect()
            stages = _stage_structure(ctx)
            ctx.close()
            return out, stages

        ex, ex_stages = run("exchange")
        es, es_stages = run("extsort")
        assert len(es) == len(ex)
        for a, b in zip(es, ex):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert es_stages == ex_stages

    def test_env_var_selects_strategy(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHUFFLE", "extsort")
        ctx = ClusterContext(n_nodes=2)
        assert ctx.shuffle_strategy == "extsort"
        cols = _dup_columns(500, 31)
        got = ctx.parallelize(cols, n_partitions=3).distinct().collect()
        ctx.close()
        ref_ctx = ClusterContext(n_nodes=2, shuffle="exchange")
        ref = ref_ctx.parallelize(cols, n_partitions=3).distinct().collect()
        ref_ctx.close()
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_per_call_override(self):
        ctx = ClusterContext(n_nodes=2, shuffle="exchange")
        cols = _dup_columns(400, 17)
        rdd = ctx.parallelize(cols, n_partitions=3)
        a = rdd.distinct(shuffle="extsort").collect()
        b = rdd.distinct(shuffle="exchange").collect()
        ctx.close()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_bounded_reduce_memory_under_skew(self, monkeypatch):
        """Worst-case reduce skew: every partition holds the same keys
        (unique *within* the partition, so the map-side combiner removes
        nothing) and every key is 0 mod n_parts, so all rows land on
        reducer 0.  The hash exchange must concatenate and sort the full
        800k-row bucket at once; the external sort streams it through
        chunk-sized merge windows and only ever holds the 100k distinct
        survivors, so its traced peak stays well under half the exchange
        peak.  The backend is pinned serial: tracemalloc only sees
        driver-process allocations, so the comparison is meaningless on
        the process-based backends."""
        monkeypatch.setenv("REPRO_EXTSORT_CHUNK_ROWS", "1024")
        n_parts = 8
        keys_per = 100_000
        rng = np.random.default_rng(5)
        base = rng.permutation(keys_per).astype(np.int64) * n_parts
        col = np.concatenate(
            [np.roll(base, 17 * i) for i in range(n_parts)]
        )

        def peak(shuffle):
            ctx = ClusterContext(
                n_nodes=n_parts, shuffle=shuffle, executor="serial"
            )
            rdd = ctx.parallelize((col,), n_partitions=n_parts)
            tracemalloc.start()
            tracemalloc.reset_peak()
            out = rdd.distinct(key_columns=(0,)).collect()
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            ctx.close()
            return out, peak_bytes

        ex_out, ex_peak = peak("exchange")
        es_out, es_peak = peak("extsort")
        for a, b in zip(es_out, ex_out):
            np.testing.assert_array_equal(a, b)
        assert es_peak < ex_peak / 2, (es_peak, ex_peak)


# ----------------------------------------------------------------------
class TestSpillFiles:
    @pytest.mark.parametrize(
        ("codec_name", "ext"),
        [("raw", ".npz"), ("zlib", ".blk"), ("mmap", ".blk")],
    )
    def test_spill_extension_follows_codec(self, tmp_path, codec_name, ext):
        ctx = ClusterContext(
            n_nodes=2, memory_budget_bytes=1_000,
            spill_dir=tmp_path, block_codec=codec_name,
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
        assert all(p.suffix == ext for p in spilled), spilled
        assert ctx.storage.codec == codec_name
        rdd.unpersist()
        ctx.close()

    def test_compression_accounting(self, tmp_path):
        ctx = ClusterContext(
            n_nodes=2, memory_budget_bytes=1_000,
            spill_dir=tmp_path, block_codec="zlib",
        )
        cols = (np.zeros(50_000, dtype=np.int64),)
        rdd = ctx.parallelize(cols, n_partitions=2).persist()
        rdd.count()
        stats = ctx.storage.stats
        assert stats.disk_logical_bytes > stats.disk_bytes
        assert stats.compression_ratio() > 5.0
        assert ctx.metrics.storage_compression_ratio > 5.0
        assert ctx.metrics.storage_disk_logical_bytes == (
            stats.disk_logical_bytes
        )
        assert ctx.metrics.storage_codec_seconds >= 0.0
        rdd.unpersist()
        ctx.close()

    def test_mixed_codec_directory_readable(self, tmp_path):
        """Reads dispatch on the file, not the configured codec: blocks
        written under one codec reload under another configuration."""
        a = (np.arange(100, dtype=np.int64),)
        get_codec("zlib").write(str(tmp_path / "x.blk"), a)
        get_codec("raw").write(str(tmp_path / "y.npz"), a)
        for name in ("x.blk", "y.npz"):
            np.testing.assert_array_equal(
                read_block_file(str(tmp_path / name))[0], a[0]
            )


# ----------------------------------------------------------------------
class TestGeneratorDigestMatrix:
    """Codec x shuffle x budget never changes generator output."""

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

        base_d, base_s = run()
        for codec in CODEC_NAMES:
            for shuffle in ("exchange", "extsort"):
                d, s = run(
                    block_codec=codec, shuffle=shuffle,
                    memory_budget_bytes=1 << 14,
                )
                assert d == base_d, (codec, shuffle)
                assert s == base_s, (codec, shuffle)


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
    def test_reports_codec_and_shuffle(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCK_CODEC", raising=False)
        monkeypatch.delenv("REPRO_SHUFFLE", raising=False)
        assert main(["engine-info"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"block codec\s*: raw\b", out)
        assert re.search(r"shuffle\s*: exchange\b", out)
        assert out.count("[default]") >= 2

    def test_flag_source(self, capsys):
        assert main(
            ["engine-info", "--block-codec", "zlib",
             "--shuffle", "extsort"]
        ) == 0
        out = capsys.readouterr().out
        assert re.search(r"block codec\s*: zlib\s+\[flag\]", out)
        assert re.search(r"shuffle\s*: extsort\s+\[flag\]", out)

    def test_env_source(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_CODEC", "mmap")
        assert main(["engine-info"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"block codec\s*: mmap\b", out)
        assert "[env REPRO_BLOCK_CODEC]" in out
