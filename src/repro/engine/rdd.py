"""Columnar resilient-dataset abstraction.

An :class:`ArrayRDD` is a partitioned dataset of aligned 1-D NumPy
columns exposing the subset of the Spark RDD API the paper's algorithms
use: ``map_partitions``, ``sample`` (PGPBA's preferential-attachment
stage), ``distinct`` (PGSK's collision removal), ``union``,
``repartition``, ``collect`` and ``count``.

Evaluation is **lazy**: transformations only extend a lineage plan (one
:class:`~repro.engine.plan.Pipe` per partition); actions hand the plan to
:func:`~repro.engine.plan.fuse_and_run`, which pipelines each partition's
chain of narrow ops through a single fused executor task — no
intermediate RDD is ever materialized across all partitions.  Each fused
task times its operator segments separately with ``time.perf_counter``
and the measured per-stage costs are reported to the owning
:class:`~repro.engine.context.ClusterContext`, whose scheduler converts
them into simulated cluster time: the simulated clock sees the same
per-partition work no matter which backend ran it, and one stage per
transformation although a chain runs as one task.  Calling ``_force()``
after every transformation is the eager reference: the same datasets
and stage records at a higher peak memory.

Materialized partitions live in the context's
:class:`~repro.engine.storage.BlockStore` behind stable
:class:`~repro.engine.storage.BlockId` handles: the RDD itself only holds
block ids, and every data access goes through the store.  Blocks are
memory-resident and reference counted (``union`` passthrough shares
them), and freed when the last referencing RDD is garbage collected.

``persist()`` pins an RDD: its first forcing materializes and caches the
partitions (breaking any fusion chain through it) and registers the
resident bytes with the metrics' driver-side memory meter until
``unpersist()``.  Forcing always caches the forced RDD's own
partitions, but *not* its lineage intermediates — fork two lazy
branches off one unforced RDD and the shared prefix recomputes (and is
re-charged to the simulated clock); persist the branch point to avoid
that, as the generators do at their loop boundaries.

A task that raises fails the action that forced it: every task is a
pure function of its anchor partition and ``(seed, partition)``, so
nothing is retried (see :mod:`repro.engine.executor`).
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, Sequence

import numpy as np

from repro.engine.partitioner import split_count
from repro.engine.plan import PendingOp, Pipe, fuse_and_run
from repro.engine.storage import BlockId

__all__ = ["ArrayRDD"]

Columns = tuple[np.ndarray, ...]


def _validate_partition(cols: Sequence[np.ndarray]) -> Columns:
    cols = tuple(np.asarray(c) for c in cols)
    if not cols:
        raise ValueError("a partition needs at least one column")
    n = cols[0].size
    for c in cols:
        if c.ndim != 1 or c.size != n:
            raise ValueError("partition columns must be aligned 1-D arrays")
    return cols


def _release_rdd(store, block_ids, metrics, rdd_id):
    """Finalizer: drop block references and any persist accounting when
    an RDD is garbage collected (so a forgotten ``unpersist()`` cannot
    leak driver-meter bytes forever)."""
    store.release_many(block_ids)
    metrics.release_persist(rdd_id)


class ArrayRDD:
    """Partitioned columnar dataset bound to a cluster context.

    ``task_multiplier`` decouples *real* partitions from *simulated* tasks:
    the paper's partition rule (2x executor cores x nodes) yields thousands
    of tiny partitions, which is faithful for Spark but wasteful for a
    local simulator.  Each real partition therefore stands for
    ``task_multiplier`` scheduler tasks — its measured cost is split evenly
    across them before the makespan model runs, so scaling behaviour is
    unchanged while the Python-side partition count stays small.

    Partitions are immutable once materialized, so the driver-side
    metadata views (``count``, ``partition_sizes``, ``partition_bytes``)
    are computed once and cached — PGPBA's growth loop polls them every
    iteration.  Metadata comes from the block store's per-block records.
    On a lazy RDD they are actions: they force the lineage.
    """

    def __init__(
        self, context, partitions: list[Columns], *, task_multiplier: int = 1
    ) -> None:
        if not partitions:
            raise ValueError("an RDD needs at least one partition")
        if task_multiplier < 1:
            raise ValueError("task_multiplier must be >= 1")
        parts = [_validate_partition(p) for p in partitions]
        width = len(parts[0])
        if any(len(p) != width for p in parts):
            raise ValueError("all partitions must have the same column count")
        self._init_shell(context, task_multiplier)
        self._known_columns = width
        self._adopt_results(parts)

    def _init_shell(self, context, task_multiplier: int) -> None:
        self._ctx = context
        self.task_multiplier = task_multiplier
        self._id = context._next_rdd_id()
        self._pipes: list[Pipe] | None = None
        self._blocks: list[BlockId] | None = None
        self._finalizer = None
        self._known_columns: int | None = None
        self._persisted = False
        self._cached_count: int | None = None
        self._cached_sizes: np.ndarray | None = None
        self._cached_bytes: np.ndarray | None = None

    @classmethod
    def _from_pipes(
        cls,
        context,
        pipes: list[Pipe],
        *,
        task_multiplier: int,
        n_columns: int | None,
    ) -> "ArrayRDD":
        rdd = cls.__new__(cls)
        rdd._init_shell(context, task_multiplier)
        rdd._pipes = pipes
        rdd._known_columns = n_columns
        return rdd

    @classmethod
    def _from_results(
        cls,
        context,
        results: list,
        *,
        task_multiplier: int,
    ) -> "ArrayRDD":
        """Build a materialized RDD from executor results: raw column
        tuples, or :class:`BlockId` (share an existing block by
        reference)."""
        rdd = cls.__new__(cls)
        rdd._init_shell(context, task_multiplier)
        rdd._adopt_results(results)
        return rdd

    def _adopt_results(self, results: list) -> None:
        """Register executor results as this RDD's blocks in the store."""
        store = self._ctx.storage
        blocks: list[BlockId] = []
        width: int | None = None
        for i, result in enumerate(results):
            if isinstance(result, BlockId):
                store.share(result)
                blocks.append(result)
                w = store.meta(result).n_columns
            else:
                block_id = BlockId(self._id, i)
                store.put(block_id, result)
                blocks.append(block_id)
                w = len(result)
            if width is None:
                width = w
            elif w != width:
                raise ValueError(
                    "all partitions must have the same column count"
                )
        self._blocks = blocks
        self._pipes = None
        self._known_columns = width
        self._finalizer = weakref.finalize(
            self, _release_rdd, store, list(blocks), self._ctx.metrics,
            self._id,
        )

    def _release_now(self) -> None:
        """Eagerly drop this RDD's block references (internal use by the
        shuffle, which consumes its map side mid-exchange)."""
        if self._finalizer is not None:
            self._finalizer()
        self._blocks = None

    # ------------------------------------------------------------------
    # lineage plumbing
    # ------------------------------------------------------------------
    @property
    def _is_anchor(self) -> bool:
        """Materialized and persisted RDDs anchor fusion chains."""
        return self._blocks is not None or self._persisted

    def _as_pipes(self) -> list[Pipe]:
        if self._is_anchor:
            return [Pipe(self, i) for i in range(self.n_partitions)]
        return list(self._pipes)

    def _force(self) -> list[BlockId]:
        """Materialize this RDD (idempotent): run the fused plan, record
        each logical stage's measured costs, register the blocks."""
        if self._blocks is not None:
            return self._blocks
        results, stage_groups = fuse_and_run(self._ctx, self._pipes)
        for group in stage_groups:
            self._ctx._record_stage(
                group.op.stage,
                group.cpu_seconds,
                group.bytes_out,
                np.asarray(group.bytes_out, dtype=np.int64),
                multiplier=group.op.multiplier,
            )
        self._adopt_results(results)
        if self._persisted:
            self._ctx.metrics.register_persist(
                self._id, int(self.partition_bytes().sum())
            )
        return self._blocks

    def _partition(self, index: int) -> Columns:
        """Load one partition's columns through the store (an action)."""
        self._force()
        return self._ctx.storage.get(self._blocks[index])

    def _task_ref(self, index: int):
        """A picklable/forkable block reference for task closures."""
        self._force()
        return self._ctx.storage.task_ref(self._blocks[index])

    def persist(self) -> "ArrayRDD":
        """Pin this RDD: cache its partitions at first forcing (breaking
        any fusion chain through it) and account the resident bytes on
        the driver-side memory meter until :meth:`unpersist`.
        Idempotent: re-persisting never double-counts bytes.
        """
        self._persisted = True
        if self._blocks is not None:
            # register_persist overwrites the same key, so repeated
            # persist() calls can never drift the accounting.
            self._ctx.metrics.register_persist(
                self._id, int(self.partition_bytes().sum())
            )
        return self

    def unpersist(self) -> "ArrayRDD":
        """Release the persist accounting (idempotent).  The partition
        data itself is freed by block reference counting once nothing
        downstream shares it."""
        if self._persisted:
            self._persisted = False
            self._ctx.metrics.release_persist(self._id)
        return self

    @property
    def is_persisted(self) -> bool:
        return self._persisted

    @property
    def is_materialized(self) -> bool:
        return self._blocks is not None

    # ------------------------------------------------------------------
    @property
    def context(self):
        return self._ctx

    @property
    def n_partitions(self) -> int:
        return (
            len(self._blocks)
            if self._blocks is not None
            else len(self._pipes)
        )

    @property
    def n_columns(self) -> int:
        if self._known_columns is None:
            self._force()
        return self._known_columns

    def count(self) -> int:
        if self._cached_count is None:
            self._cached_count = int(self.partition_sizes().sum())
        return self._cached_count

    def partition_sizes(self) -> np.ndarray:
        """Row count per partition (an action on a lazy RDD).

        Served from block metadata.  Cached and returned read-only:
        partitions never change after materialization.
        """
        if self._cached_sizes is None:
            self._force()
            store = self._ctx.storage
            sizes = np.asarray(
                [store.meta(b).rows for b in self._blocks], dtype=np.int64
            )
            sizes.flags.writeable = False
            self._cached_sizes = sizes
        return self._cached_sizes

    def partition_bytes(self) -> np.ndarray:
        if self._cached_bytes is None:
            self._force()
            store = self._ctx.storage
            nbytes = np.asarray(
                [store.meta(b).nbytes for b in self._blocks], dtype=np.int64
            )
            nbytes.flags.writeable = False
            self._cached_bytes = nbytes
        return self._cached_bytes

    def collect(self) -> Columns:
        """Concatenate all partitions into driver-side column arrays."""
        self._force()
        n_cols = self.n_columns
        chunks: list[list[np.ndarray]] = [[] for _ in range(n_cols)]
        for i in range(self.n_partitions):
            part = self._partition(i)
            for j in range(n_cols):
                chunks[j].append(part[j])
        return tuple(np.concatenate(chunks[j]) for j in range(n_cols))

    # ------------------------------------------------------------------
    def map_partitions(
        self,
        fn: Callable[[Columns, int], Sequence[np.ndarray]],
        *,
        stage: str = "map_partitions",
    ) -> "ArrayRDD":
        """Apply ``fn(columns, partition_index) -> columns`` per partition.

        A narrow transformation: it extends the lineage plan and returns
        immediately; the fused task chain runs (concurrently, on the
        context's executor backend) when an action forces the result.
        This is the workhorse all other transformations build on.
        """
        op = PendingOp(
            fn=fn,
            stage=stage,
            n_tasks=self.n_partitions,
            multiplier=self.task_multiplier,
        )
        if self._is_anchor:
            pipes = [
                Pipe(self, i, ((op, i),)) for i in range(self.n_partitions)
            ]
        else:
            pipes = [
                Pipe(p.base, p.index, p.ops + ((op, i),))
                for i, p in enumerate(self._pipes)
            ]
        return ArrayRDD._from_pipes(
            self._ctx,
            pipes,
            task_multiplier=self.task_multiplier,
            n_columns=None,
        )

    def sample(
        self, fraction: float, *, seed: int = 0, stage: str = "sample"
    ) -> "ArrayRDD":
        """Uniform row sample of ``fraction * count`` rows per partition.

        ``fraction > 1`` samples with replacement, as Spark's
        ``RDD.sample(withReplacement=True)`` — PGPBA runs with fraction up
        to 2 in the paper's performance experiments.
        """
        if fraction <= 0:
            raise ValueError("fraction must be positive")
        replace = fraction > 1.0

        def _sample(cols: Columns, pidx: int) -> Columns:
            n = cols[0].size
            # ceil guarantees forward progress: any positive fraction on a
            # non-empty partition yields at least one row (PGPBA's clamped
            # final iteration relies on this to terminate).
            k = int(np.ceil(fraction * n))
            if n == 0 or k == 0:
                return tuple(c[:0] for c in cols)
            rng = np.random.default_rng((seed, pidx))
            if replace or k > n:
                idx = rng.integers(0, n, size=k)
            else:
                idx = rng.choice(n, size=k, replace=False)
            return tuple(c[idx] for c in cols)

        return self.map_partitions(_sample, stage=stage)

    def distinct(
        self, *, key_columns: tuple[int, int] | int = 0,
        stage: str = "distinct",
    ) -> "ArrayRDD":
        """Remove duplicate rows, keying on one int column or a pair.

        Modelled as Spark's two-phase distinct: a map-side per-partition
        de-duplication (a narrow op — it fuses with whatever chain
        produced its input), then a hash shuffle so equal keys land in
        the same partition, then a reduce-side unique.  The shuffle is a
        fusion barrier: it forces the map side and returns a
        materialized RDD.

        The shuffle is a real hash exchange: every map task buckets its
        rows by ``hash(key) % n_partitions`` on the executor, the driver
        concatenates per-destination buckets in memory (releasing each
        source's buckets as they are merged), and the reduce-side unique
        runs per-partition on the executor.
        The shuffle is charged to the simulated clock via the reduce
        stage's measured cost plus a serial ``:driver`` component.
        """
        if isinstance(key_columns, int):
            key_cols: tuple[int, ...] = (key_columns,)
        else:
            key_cols = tuple(key_columns)
        n_parts = self.n_partitions
        map_side = self.map_partitions(
            lambda cols, i: _unique_rows(cols, key_cols),
            stage=f"{stage}:map",
        )
        map_side._force()
        # The exchange consumes the map side: its blocks are released
        # as soon as every map task has re-bucketed its input.
        results, task_cpu, driver_cpu = _exchange_shuffle(
            self._ctx, map_side, key_cols, n_parts
        )
        del map_side
        rdd = ArrayRDD._from_results(
            self._ctx, results, task_multiplier=self.task_multiplier
        )
        # The simulated cost model is calibrated independently of the
        # local data path: of the total measured shuffle work, 75%
        # parallelises across reducers and 25% is the serial
        # coordination/merge component that does not shrink with cluster
        # size — the reason PGSK's strong scaling sits below PGPBA's in
        # the paper's Fig. 12.  (In real Spark the serial share is driver
        # scheduling and merge coordination, which the local concat time
        # alone would underestimate.)
        elapsed = sum(task_cpu) + driver_cpu
        per_task = 0.75 * elapsed / max(1, n_parts)
        self._ctx._record_stage(
            f"{stage}:reduce",
            [per_task] * n_parts,
            list(rdd.partition_bytes()),
            rdd.partition_bytes(),
            multiplier=self.task_multiplier,
        )
        self._ctx._record_stage(
            f"{stage}:driver", [0.25 * elapsed], [0], None
        )
        return rdd

    def union(self, other: "ArrayRDD") -> "ArrayRDD":
        """Concatenate partition lists (no data movement, like Spark).

        Lazy and free: each side contributes its pipes (or anchor
        partitions by reference) and keeps its own pending chain — the
        column-count check runs when both widths are already known,
        otherwise at materialization.
        """
        if (
            self._known_columns is not None
            and other._known_columns is not None
            and self._known_columns != other._known_columns
        ):
            raise ValueError("union requires matching column counts")
        width = self._known_columns or other._known_columns
        return ArrayRDD._from_pipes(
            self._ctx,
            self._as_pipes() + other._as_pipes(),
            task_multiplier=max(self.task_multiplier, other.task_multiplier),
            n_columns=width
            if (self._known_columns and other._known_columns)
            else None,
        )

    def repartition(self, n_partitions: int, *, stage: str = "repartition") -> "ArrayRDD":
        """Rebalance rows into ``n_partitions`` near-equal partitions.

        A range exchange (and therefore a fusion barrier): the driver
        only *plans* (computes per-destination source slices); the
        per-destination load/slice/concatenate work runs as executor
        tasks against block references.  Row order
        (and therefore the output) is identical to concatenating
        everything and ``np.array_split``-ing it, without ever
        materialising the full dataset in the driver.
        """
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self._force()
        t0 = time.perf_counter()
        sizes = self.partition_sizes()
        src_off = np.concatenate(([0], np.cumsum(sizes)))
        total = int(src_off[-1])
        bounds = np.concatenate(
            ([0], np.cumsum(split_count(total, n_partitions)))
        )
        pieces: list[list[tuple[int, int, int]]] = []
        for p in range(n_partitions):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            mine: list[tuple[int, int, int]] = []
            if hi > lo:
                s = int(np.searchsorted(src_off, lo, side="right")) - 1
                while s < self.n_partitions and src_off[s] < hi:
                    a = max(lo, int(src_off[s])) - int(src_off[s])
                    b = min(hi, int(src_off[s + 1])) - int(src_off[s])
                    if b > a:
                        mine.append((s, a, b))
                    s += 1
            pieces.append(mine)
        refs = {
            s: self._task_ref(s)
            for s in sorted({c[0] for mine in pieces for c in mine})
        }
        template_ref = (
            self._task_ref(0) if any(not mine for mine in pieces) else None
        )
        plan_seconds = time.perf_counter() - t0
        n_cols = self.n_columns

        def _make_task(mine: list[tuple[int, int, int]]):
            def _task():
                loaded = [(refs[s].load(), a, b) for s, a, b in mine]
                if not loaded and template_ref is not None:
                    template = template_ref.load()
                t0 = time.perf_counter()
                if not loaded:
                    cols = tuple(c[:0] for c in template)
                elif len(loaded) == 1:
                    src, a, b = loaded[0]
                    cols = tuple(c[a:b] for c in src)
                else:
                    cols = tuple(
                        np.concatenate([src[j][a:b] for src, a, b in loaded])
                        for j in range(n_cols)
                    )
                elapsed = time.perf_counter() - t0
                return cols, elapsed

            return _task

        outs = self._ctx.run_tasks([_make_task(mine) for mine in pieces])
        results = [out[0] for out in outs]
        # Fold the (tiny, index-only) driver planning cost into the tasks
        # so the stage structure matches the pre-exchange accounting.
        cpu = [out[1] + plan_seconds / n_partitions for out in outs]
        rdd = ArrayRDD._from_results(
            self._ctx, results, task_multiplier=self.task_multiplier
        )
        self._ctx._record_stage(
            stage,
            cpu,
            list(rdd.partition_bytes()),
            rdd.partition_bytes(),
            multiplier=self.task_multiplier,
        )
        return rdd


# ----------------------------------------------------------------------
# shuffle machinery
# ----------------------------------------------------------------------

# SplitMix64's multiplier: decorrelates the destination from low-order
# key-bit patterns so contiguous vertex ids spread over all reducers.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash_keys(cols: Columns, key_cols: tuple[int, ...]) -> np.ndarray:
    """Uint64 row hash for shuffle routing.

    Wraparound is deliberate and harmless: the hash only decides which
    reducer sees a row, and every path (any backend, any partitioning)
    computes it identically.  Exactness for de-duplication comes from
    :func:`_unique_rows`, never from this hash.
    """
    key = cols[key_cols[0]].astype(np.uint64)
    for kc in key_cols[1:]:
        key = key * _HASH_MULT + cols[kc].astype(np.uint64)
    return key


def _route(cols: Columns, key_cols: tuple[int, ...], n_parts: int):
    """Stable per-destination row ordering for the hash exchange, so
    the reduce side sees the same rows in the same order on every
    backend."""
    dest = (_hash_keys(cols, key_cols) % np.uint64(n_parts)).astype(np.int64)
    order = np.argsort(dest, kind="stable")
    splits = np.searchsorted(dest[order], np.arange(n_parts + 1))
    return order, splits


def _exchange_shuffle(
    ctx, map_side: "ArrayRDD", key_cols: tuple[int, ...], n_parts: int
):
    """Hash-exchange + reduce-side unique without a driver collect.

    Returns ``(results, per_task_cpu, driver_cpu)`` — raw measured
    seconds; the caller applies the calibrated parallel/serial cost
    split.  Map-side bucketing and reduce-side unique both run on the
    executor; the driver only concatenates per-destination buckets,
    releasing buffers as eagerly as the dataflow allows.
    """
    n_src = map_side.n_partitions
    n_cols = map_side.n_columns
    refs = [map_side._task_ref(i) for i in range(n_src)]

    def _make_bucket_task(ref):
        def _task():
            cols = ref.load()
            t0 = time.perf_counter()
            order, splits = _route(cols, key_cols, n_parts)
            # Fancy indexing copies, so every bucket owns its rows and the
            # driver can free it independently of its siblings.
            buckets = [
                tuple(c[order[splits[p]:splits[p + 1]]] for c in cols)
                for p in range(n_parts)
            ]
            return buckets, time.perf_counter() - t0

        return _task

    bucket_outs = ctx.run_tasks([_make_bucket_task(r) for r in refs])
    bucket_cpu = [r[1] for r in bucket_outs]
    bucketed: list[list[Columns]] = [r[0] for r in bucket_outs]
    del bucket_outs
    refs = None
    map_side._release_now()  # map-side blocks are consumed; free them now

    t0 = time.perf_counter()
    gathered: list[Columns] = []
    for p in range(n_parts):
        gathered.append(
            tuple(
                np.concatenate([src[p][j] for src in bucketed])
                for j in range(n_cols)
            )
        )
        for src in bucketed:
            src[p] = None  # this destination's buckets are merged; free
    driver_seconds = time.perf_counter() - t0
    del bucketed

    def _make_unique_task(cols: Columns):
        def _task():
            t0 = time.perf_counter()
            out = _unique_rows(cols, key_cols)
            return out, time.perf_counter() - t0

        return _task

    reduced = ctx.run_tasks([_make_unique_task(g) for g in gathered])
    out_parts = [r[0] for r in reduced]
    task_cpu = [bucket_cpu[p] + reduced[p][1] for p in range(n_parts)]
    return out_parts, task_cpu, driver_seconds


# ----------------------------------------------------------------------
# exact row de-duplication
# ----------------------------------------------------------------------

# a * span + b packing is exact only while it fits int64; beyond that we
# fall back to a (slower) lexicographic unique over the stacked columns.
_INT64_MAX = np.iinfo(np.int64).max


def _unique_rows(cols: Columns, key_cols: tuple[int, ...]) -> Columns:
    if cols[0].size == 0:
        return cols
    if len(key_cols) == 1:
        _, idx = np.unique(cols[key_cols[0]], return_index=True)
    else:
        idx = _unique_pair_index(
            cols[key_cols[0]], cols[key_cols[1]]
        )
    idx.sort()
    return tuple(c[idx] for c in cols)


def _unique_pair_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-occurrence indices of distinct ``(a, b)`` pairs, exactly.

    Fast path: pack the pair into one int64 key when the bounds prove
    ``a * span + b`` cannot overflow (Python-int arithmetic, so the check
    itself cannot wrap).  Otherwise — vertex ids near 2^32 with large
    spans used to wrap silently here — stack the columns and take a
    row-wise unique, which is exact for any magnitude.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if (
        np.issubdtype(a.dtype, np.integer)
        and np.issubdtype(b.dtype, np.integer)
    ):
        b_min, b_max = int(b.min()), int(b.max())
        a_min, a_max = int(a.min()), int(a.max())
        if a_min >= 0 and b_min >= 0:
            span = b_max + 1
            if a_max * span + b_max <= _INT64_MAX:
                packed = a.astype(np.int64) * np.int64(span) + b.astype(
                    np.int64
                )
                _, idx = np.unique(packed, return_index=True)
                return idx
    stacked = np.stack(
        [np.asarray(a), np.asarray(b)], axis=1
    )
    _, idx = np.unique(stacked, axis=0, return_index=True)
    return idx
