"""Engine wall-clock benchmark: executor backends, fusion, spill, codecs.

Unlike the ``bench_fig*`` modules, which read the *simulated* cluster
clock, this bench times *real* elapsed seconds — the thing the pluggable
executor layer (serial / threads / pool) accelerates — and tracks
it from PR to PR via ``benchmarks/results/BENCH_engine.json``:

* PGPBA and PGSK generation wall time per backend at 10^5-10^6 edges
  (parallel backends swept at 2 and 4 workers), with the speedup over
  ``serial``, the logical-to-physical task counts before/after adaptive
  partition coalescing, the per-backend transport overhead breakdown
  (submit/serialize/ipc/compute), and a digest of the output graph
  proving every backend produced the bit-identical dataset;
* the socket cluster backend versus the local pool (section ``cluster``):
  PGPBA/PGSK wall at 2 and 4 loopback worker daemons with the network
  transport breakdown (bytes on the wire, round trips, serialize and
  ipc-wait shares), asserting the cluster digest matches the pool digest
  bit for bit;
* the pipelined, compressed wire against its own stop-and-wait baseline
  (section ``cluster_transport``): PGPBA at in-flight depth 1 + wire
  codec off (the pre-pipelining transport, reconstructed) versus the
  shipping defaults (depth 2 + zlib), reporting wall vs the local pool,
  raw-vs-wire bytes with the compression ratio and the dispatch
  overlap fraction — digests asserted to match the pool bit for bit in
  every configuration;
* the lazy-DAG stage-fusion win: a 10^6-row grow/transform/contract/
  distinct pipeline timed and tracemalloc-metered with fusion on versus
  ``REPRO_FUSION=off``, asserting the fused run is >= 1.3x better on
  wall clock or peak memory while producing the byte-identical dataset
  and the identical simulated stage structure;
* the cost of fault recovery: the same pipeline under a seeded
  ``FaultPlan`` (exceptions + killed workers + stragglers) versus
  fault-free, asserting the recovered run produced the byte-identical
  dataset and identical simulated stage structure, and reporting the
  wall-clock overhead plus the recovery counters;
* the block-store spill path: a 10^7-row grow/distinct pipeline under an
  unlimited memory budget versus a 64 MiB one, asserting byte-identical
  datasets and stage structures while the budgeted run's peak
  tracemalloc stays near the budget and the overflow lands on disk
  (reported: peaks, disk high-water, spill/reload counts, wall ratio);
* the block codec trade-off surface: the same spill pipeline once per
  codec (zlib / mmap) under a tight 8 MiB budget,
  asserting byte-identical datasets and stage structures while
  reporting disk written, compression ratio and real encode/decode
  seconds per codec;
* out-of-core generation: weak-scaling PGPBA structure growth to 10^8
  edges under a 1 GiB budget with the zlib codec (wall, edges/s,
  tracemalloc peak vs budget, disk high-water,
  compression ratio), plus a parity matrix re-growing the smallest size
  on every backend x codec under an 8 MiB budget and asserting digest +
  stage equality with an unbudgeted in-memory reference run.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep to a CI-sized smoke run
(~30 s); ``REPRO_BENCH_EDGES`` overrides the size list directly, e.g.
``REPRO_BENCH_EDGES=100000,1000000``; ``REPRO_BENCH_OOC_EDGES``
overrides the out-of-core size list the same way.

Run directly (``PYTHONPATH=src python benchmarks/bench_engine_wallclock.py``)
or via pytest like the figure benches.
"""

from __future__ import annotations

import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np

from repro.bench import cached_seed, format_table, measure_wall
from repro.core import PGPBA, PGSK
from repro.engine import ClusterContext, available_backends

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_engine.json"

# The generic sweeps cover the local backends; `cluster` needs live
# worker daemons, so it gets its own section (run_cluster_transport)
# that launches loopback daemons for the duration.
BACKENDS = tuple(b for b in available_backends() if b != "cluster")


def _worker_matrix(backend: str) -> tuple[int | None, ...]:
    """Worker counts swept per backend: serial is single-stream by
    definition; the parallel backends run at 2 and 4 workers so the
    JSON tracks how the pool's fork-once amortization scales."""
    if backend == "serial":
        return (None,)
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return (2,)
    return (2, 4)


def _sizes() -> list[int]:
    override = os.environ.get("REPRO_BENCH_EDGES")
    if override:
        return [int(s) for s in override.split(",") if s.strip()]
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return [50_000]
    return [100_000, 1_000_000]


def _shuffle_rows() -> int:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return 200_000
    return 1_000_000


def _context(backend: str, workers: int | None = None) -> ClusterContext:
    # A small simulated cluster whose 32 real partitions give every local
    # worker something to chew on; the simulated shapes are identical
    # across backends, only the wall clock differs.  Parallel backends
    # run even on a 1-CPU host so the dispatch path (thread pool /
    # fork + pipes / pool + shared memory) is genuinely exercised —
    # there a speedup near 1.0 is the expected outcome, not a failure.
    if workers is None:
        workers = os.cpu_count() or 1
        if backend != "serial":
            workers = max(2, workers)
    return ClusterContext(
        n_nodes=4, executor_cores=12, partition_multiplier=2,
        executor=backend, local_workers=workers,
    )


def _graph_digest(graph) -> str:
    """Order-sensitive digest of the full (src, dst, properties) dataset."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.src).tobytes())
    h.update(np.ascontiguousarray(graph.dst).tobytes())
    for name in sorted(graph.edge_properties):
        h.update(name.encode())
        h.update(np.ascontiguousarray(graph.edge_properties[name]).tobytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
def run_backend_sweep(seed_bundle) -> list[dict]:
    """Wall-clock generation per (algorithm, size, backend, workers)."""
    graph, analysis = seed_bundle.graph, seed_bundle.analysis
    pgsk = PGSK(seed=11, kronfit_iterations=8, kronfit_swaps=30)
    initiator = pgsk.fit_initiator(graph)
    records: list[dict] = []
    for size in _sizes():
        for algo in ("PGPBA", "PGSK"):
            serial_wall = None
            for backend in BACKENDS:
                for workers in _worker_matrix(backend):
                    with _context(backend, workers) as ctx:
                        if algo == "PGPBA":
                            result, wall = measure_wall(
                                lambda: PGPBA(
                                    fraction=2.0, seed=11
                                ).generate(
                                    graph, analysis, size, context=ctx
                                )
                            )
                        else:
                            result, wall = measure_wall(
                                lambda: pgsk.generate(
                                    graph, analysis, size,
                                    context=ctx, initiator=initiator,
                                )
                            )
                        m = ctx.metrics
                        transport = m.transport_breakdown()
                        emitted = m.tasks_emitted
                        dispatched = m.tasks_dispatched
                        inlined = m.tasks_inlined
                        ratio = m.dispatch_ratio
                    if backend == "serial":
                        serial_wall = wall
                    records.append(
                        {
                            "algorithm": algo,
                            "target_edges": size,
                            "backend": backend,
                            "workers": ctx.executor.workers,
                            "edges": int(result.graph.n_edges),
                            "wall_seconds": round(wall, 4),
                            "speedup_vs_serial": round(
                                serial_wall / wall, 3
                            ),
                            "simulated_seconds": round(
                                result.total_seconds, 4
                            ),
                            "n_tasks": ctx.metrics.n_tasks,
                            # Coalescing: logical tasks before, physical
                            # executor dispatches after (+ empty chains
                            # run inline in the driver).
                            "tasks_emitted": int(emitted),
                            "tasks_dispatched": int(dispatched),
                            "tasks_inlined": int(inlined),
                            "dispatch_ratio": round(ratio, 3),
                            # Per-backend wall-clock overhead breakdown.
                            "transport": {
                                k: (round(v, 4) if isinstance(v, float)
                                    else int(v))
                                for k, v in transport.items()
                            },
                            "digest": _graph_digest(result.graph),
                        }
                    )
    return records


def _fusion_pipeline(ctx: ClusterContext, rows: int):
    """Growth-shaped chain: expand x4, transform, contract, distinct.

    Eagerly evaluated, every intermediate (including the 4x-expanded
    dataset) is materialized in full before the next stage starts; fused,
    each partition flows through the whole narrow chain in one task and
    only the final contracted dataset is ever resident.
    """
    rng = np.random.default_rng(23)
    src = rng.integers(0, rows // 2, size=rows, dtype=np.int64)
    dst = rng.integers(0, rows // 2, size=rows, dtype=np.int64)
    base = ctx.parallelize([src, dst])
    grown = base.map_partitions(
        lambda c, p: (np.repeat(c[0], 4), np.repeat(c[1], 4)),
        stage="fuse:grow",
    )
    mixed = grown.map_partitions(
        lambda c, p: (c[0] * 3 + p, c[0] ^ c[1]), stage="fuse:mix"
    )
    slim = mixed.map_partitions(
        lambda c, p: (c[0][::4].copy(), c[1][::4].copy()),
        stage="fuse:contract",
    )
    final = slim.distinct(key_columns=(0, 1), stage="fuse:distinct")
    return final.collect()


def _stage_structure(ctx: ClusterContext) -> list[tuple]:
    """Simulated stage records minus the measured times."""
    return [
        (r.stage, r.partition, r.node, r.bytes_out)
        for r in ctx.metrics.tasks
    ]


def run_fusion_comparison() -> dict:
    """Wall clock + peak driver memory, fusion on vs off (serial backend,
    so only the evaluation strategy differs).  Wall and memory are
    measured in separate runs: tracemalloc's allocation hooks would skew
    the timed pass."""
    rows = _shuffle_rows()
    modes: dict[str, dict] = {}
    structures: dict[str, list] = {}
    for mode in ("fused", "eager"):
        fusion = mode == "fused"
        with ClusterContext(
            n_nodes=4, executor_cores=12, partition_multiplier=2,
            executor="serial", fusion=fusion,
        ) as ctx:
            cols, wall = measure_wall(lambda: _fusion_pipeline(ctx, rows))
            structures[mode] = _stage_structure(ctx)
            h = hashlib.sha256()
            for c in cols:
                h.update(np.ascontiguousarray(c).tobytes())
        with ClusterContext(
            n_nodes=4, executor_cores=12, partition_multiplier=2,
            executor="serial", fusion=fusion,
        ) as ctx_mem:
            tracemalloc.start()
            tracemalloc.reset_peak()
            _fusion_pipeline(ctx_mem, rows)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        modes[mode] = {
            "wall_seconds": round(wall, 4),
            "peak_tracemalloc_bytes": int(peak),
            "digest": h.hexdigest()[:16],
            "n_tasks": len(structures[mode]),
        }
    return {
        "rows": rows,
        "fused": modes["fused"],
        "eager": modes["eager"],
        "wall_eager_over_fused": round(
            modes["eager"]["wall_seconds"]
            / max(1e-9, modes["fused"]["wall_seconds"]),
            3,
        ),
        "mem_eager_over_fused": round(
            modes["eager"]["peak_tracemalloc_bytes"]
            / max(1, modes["fused"]["peak_tracemalloc_bytes"]),
            3,
        ),
        "digests_match": modes["fused"]["digest"]
        == modes["eager"]["digest"],
        "stage_structure_match": structures["fused"]
        == structures["eager"],
    }


def run_fault_recovery() -> dict:
    """Wall-clock overhead of recovering a faulted run vs a clean one.

    The same growth-shaped pipeline runs twice on the threads backend:
    once fault-free and once under a seeded plan injecting exceptions,
    worker deaths and stragglers (horizon 2 < the default retry budget
    of 3, so convergence is guaranteed).  The recovered dataset and the
    simulated stage structure must be bit-identical — recovery is a
    wall-clock-only phenomenon."""
    from repro.engine import FaultPlan

    rows = _shuffle_rows() // 4
    plan = FaultPlan(
        seed=29, p_exception=0.15, p_kill=0.1, p_straggler=0.05,
        straggler_seconds=0.002, max_failures_per_task=2,
    )
    runs: dict[str, dict] = {}
    structures: dict[str, list] = {}
    for mode, fault_plan in (("clean", FaultPlan()), ("faulted", plan)):
        with ClusterContext(
            n_nodes=4, executor_cores=12, partition_multiplier=2,
            executor="threads", local_workers=max(2, os.cpu_count() or 1),
            fault_plan=fault_plan, retry_backoff_seconds=0.001,
        ) as ctx:
            cols, wall = measure_wall(lambda: _fusion_pipeline(ctx, rows))
            structures[mode] = _stage_structure(ctx)
            h = hashlib.sha256()
            for c in cols:
                h.update(np.ascontiguousarray(c).tobytes())
        runs[mode] = {
            "wall_seconds": round(wall, 4),
            "digest": h.hexdigest()[:16],
            "tasks_failed": ctx.metrics.tasks_failed,
            "tasks_retried": ctx.metrics.tasks_retried,
            "tasks_speculated": ctx.metrics.tasks_speculated,
            "recovery_recompute_bytes": ctx.metrics.recovery_recompute_bytes,
        }
    return {
        "rows": rows,
        "plan": plan.to_dict(),
        "clean": runs["clean"],
        "faulted": runs["faulted"],
        "wall_faulted_over_clean": round(
            runs["faulted"]["wall_seconds"]
            / max(1e-9, runs["clean"]["wall_seconds"]),
            3,
        ),
        "digests_match": runs["clean"]["digest"]
        == runs["faulted"]["digest"],
        "stage_structure_match": structures["clean"]
        == structures["faulted"],
    }


def _spill_rows() -> int:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return 1_000_000
    return 10_000_000


def _spill_budget() -> int:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return 8 * 2**20
    return 64 * 2**20


def _spill_pipeline(ctx: ClusterContext, rows: int):
    """Grow/distinct at scale: per-partition generation (the driver never
    builds the input), a x2 expansion, then the hash-exchange shuffle.
    Returns the distinct RDD without collecting it — collecting would
    re-materialize the whole dataset in the driver and mask the budget."""

    def _make(count, pidx):
        rng = np.random.default_rng((41, pidx))
        return (
            rng.integers(0, rows // 4, size=count, dtype=np.int64),
            rng.integers(0, rows // 4, size=count, dtype=np.int64),
        )

    base = ctx.generate(rows, _make, stage="spill:make")
    grown = base.map_partitions(
        lambda c, p: (np.repeat(c[0], 2), np.repeat(c[1], 2)),
        stage="spill:grow",
    )
    return grown.distinct(key_columns=(0, 1), stage="spill:distinct")


def _spill_digest(rdd) -> str:
    """Order-sensitive dataset digest, one partition resident at a time."""
    h = hashlib.sha256()
    for i in range(rdd.n_partitions):
        for c in rdd._partition(i):
            h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()[:16]


def run_storage_spill() -> dict:
    """Driver memory of grow/distinct under a block-store budget vs
    unlimited.  Wall and tracemalloc are measured in separate runs (the
    allocation hooks would skew the timed pass); the budgeted run must
    produce the byte-identical dataset and the identical simulated stage
    structure while keeping peak driver memory near the budget, with the
    overflow on disk."""
    rows = _spill_rows()
    budget = _spill_budget()
    modes: dict[str, dict] = {}
    structures: dict[str, list] = {}
    for mode, budget_bytes in (("unlimited", None), ("budgeted", budget)):
        with ClusterContext(
            n_nodes=4, executor_cores=12, partition_multiplier=2,
            executor="serial", memory_budget_bytes=budget_bytes,
        ) as ctx:
            final, wall = measure_wall(lambda: _spill_pipeline(ctx, rows))
            structures[mode] = _stage_structure(ctx)
            digest = _spill_digest(final)
            part_bytes = int(final.partition_bytes().max(initial=0))
        with ClusterContext(
            n_nodes=4, executor_cores=12, partition_multiplier=2,
            executor="serial", memory_budget_bytes=budget_bytes,
        ) as ctx_mem:
            tracemalloc.start()
            tracemalloc.reset_peak()
            _spill_pipeline(ctx_mem, rows)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            m = ctx_mem.metrics
            disk_high_water = m.storage_disk_high_water_bytes
            spills, reloads = m.storage_spill_count, m.storage_reload_count
        modes[mode] = {
            "wall_seconds": round(wall, 4),
            "peak_tracemalloc_bytes": int(peak),
            "disk_high_water_bytes": int(disk_high_water),
            "spill_count": int(spills),
            "reload_count": int(reloads),
            "max_partition_bytes": part_bytes,
            "digest": digest,
        }
    return {
        "rows": rows,
        "budget_bytes": budget,
        "unlimited": modes["unlimited"],
        "budgeted": modes["budgeted"],
        "wall_budgeted_over_unlimited": round(
            modes["budgeted"]["wall_seconds"]
            / max(1e-9, modes["unlimited"]["wall_seconds"]),
            3,
        ),
        "mem_unlimited_over_budgeted": round(
            modes["unlimited"]["peak_tracemalloc_bytes"]
            / max(1, modes["budgeted"]["peak_tracemalloc_bytes"]),
            3,
        ),
        "digests_match": modes["unlimited"]["digest"]
        == modes["budgeted"]["digest"],
        "stage_structure_match": structures["unlimited"]
        == structures["budgeted"],
    }


_CODEC_NAMES = ("zlib", "mmap")


def _codec_rows() -> int:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return 400_000
    return 4_000_000


def run_storage_codec() -> dict:
    """The grow/distinct spill pipeline under a tight budget, once per
    block codec: identical dataset and simulated stage structure by
    contract, with the disk footprint, compression ratio and real
    encode/decode seconds as the codec trade-off surface."""
    rows = _codec_rows()
    budget = 8 * 2**20  # tight: everything transits the codec
    codecs_out: dict[str, dict] = {}
    structures: dict[str, list] = {}
    for codec in _CODEC_NAMES:
        with ClusterContext(
            n_nodes=4, executor_cores=12, partition_multiplier=2,
            executor="serial", memory_budget_bytes=budget,
            block_codec=codec,
        ) as ctx:
            final, wall = measure_wall(lambda: _spill_pipeline(ctx, rows))
            digest = _spill_digest(final)
            structures[codec] = _stage_structure(ctx)
            stats = ctx.storage.stats
            codecs_out[codec] = {
                "wall_seconds": round(wall, 4),
                "disk_high_water_bytes": int(
                    ctx.metrics.storage_disk_high_water_bytes
                ),
                "disk_written_bytes": int(stats.disk_written_bytes),
                "disk_written_logical_bytes": int(
                    stats.disk_written_logical_bytes
                ),
                "compression_ratio": round(stats.compression_ratio(), 3),
                "codec_encode_seconds": round(
                    stats.codec_encode_seconds, 4
                ),
                "codec_decode_seconds": round(
                    stats.codec_decode_seconds, 4
                ),
                "digest": digest,
            }
    return {
        "rows": rows,
        "budget_bytes": budget,
        "codecs": codecs_out,
        "digests_match": len(
            {c["digest"] for c in codecs_out.values()}
        ) == 1,
        "stage_structure_match": all(
            structures[c] == structures["zlib"] for c in _CODEC_NAMES
        ),
    }


def _out_of_core_sizes() -> list[int]:
    override = os.environ.get("REPRO_BENCH_OOC_EDGES")
    if override:
        return [int(s) for s in override.split(",") if s.strip()]
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return [200_000, 1_000_000]
    return [1_000_000, 10_000_000, 100_000_000]


def _out_of_core_budget() -> int:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return 64 * 2**20
    return 1 << 30  # 1 GiB


def run_out_of_core(seed_bundle) -> dict:
    """Weak-scaling PGPBA structure growth to 10^8 edges, out of core.

    Each size runs ``PGPBA.grow_structure`` (no decoration, no collect)
    under the memory budget with the zlib codec; the grown edge
    multiset lives in spilled compressed blocks
    and the driver digests it one partition at a time.  The reported
    wall clock includes the tracemalloc hooks (one pass measures both —
    a 10^8-edge second pass would double the bench time for a constant
    factor).

    The parity matrix re-grows the smallest size on every available
    backend under every codec with an 8 MiB budget and checks digest +
    simulated-stage equality against an unbudgeted in-memory reference
    run — the out-of-core acceptance bar.
    """
    graph, analysis = seed_bundle.graph, seed_bundle.analysis
    budget = _out_of_core_budget()
    sizes = _out_of_core_sizes()
    scaling: list[dict] = []
    for size in sizes:
        with ClusterContext(
            n_nodes=4, executor_cores=12, partition_multiplier=2,
            executor="serial", memory_budget_bytes=budget,
            block_codec="zlib",
        ) as ctx:
            gen = PGPBA(fraction=2.0, seed=11)
            tracemalloc.start()
            tracemalloc.reset_peak()
            (edges, n_vertices, iterations), wall = measure_wall(
                lambda: gen.grow_structure(
                    graph, analysis, size, context=ctx
                )
            )
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            n_edges = int(edges.count())
            digest = _spill_digest(edges)
            m = ctx.metrics
            stats = ctx.storage.stats
            scaling.append(
                {
                    "target_edges": size,
                    "edges": n_edges,
                    "n_vertices": int(n_vertices),
                    "iterations": int(iterations),
                    "wall_seconds": round(wall, 4),
                    "edges_per_second": int(n_edges / max(wall, 1e-9)),
                    "peak_tracemalloc_bytes": int(peak),
                    "under_budget": int(peak) <= budget + 64 * 2**20,
                    "disk_high_water_bytes": int(
                        m.storage_disk_high_water_bytes
                    ),
                    "compression_ratio": round(
                        stats.compression_ratio(), 3
                    ),
                    "spill_count": int(m.storage_spill_count),
                    "reload_count": int(m.storage_reload_count),
                    "digest": digest,
                }
            )
            edges.unpersist()

    # Parity: the smallest size, unbudgeted in-memory reference vs every
    # backend x codec under an 8 MiB budget.
    parity_size = sizes[0]
    with ClusterContext(
        n_nodes=4, executor_cores=12, partition_multiplier=2,
        executor="serial",
    ) as ref_ctx:
        gen = PGPBA(fraction=2.0, seed=11)
        ref_edges, _, _ = gen.grow_structure(
            graph, analysis, parity_size, context=ref_ctx
        )
        ref_digest = _spill_digest(ref_edges)
        ref_structure = _stage_structure(ref_ctx)
        ref_edges.unpersist()
    parity: list[dict] = []
    for backend in BACKENDS:
        for codec in _CODEC_NAMES:
            with ClusterContext(
                n_nodes=4, executor_cores=12, partition_multiplier=2,
                executor=backend, memory_budget_bytes=8 * 2**20,
                block_codec=codec,
            ) as ctx:
                gen = PGPBA(fraction=2.0, seed=11)
                edges, _, _ = gen.grow_structure(
                    graph, analysis, parity_size, context=ctx
                )
                digest = _spill_digest(edges)
                structure = _stage_structure(ctx)
                edges.unpersist()
            parity.append(
                {
                    "backend": backend,
                    "codec": codec,
                    "digest_match": digest == ref_digest,
                    "stage_structure_match": structure == ref_structure,
                }
            )
    return {
        "budget_bytes": budget,
        "scaling": scaling,
        "parity_target_edges": parity_size,
        "parity_reference_digest": ref_digest,
        "parity": parity,
        "parity_all_match": all(
            p["digest_match"] and p["stage_structure_match"]
            for p in parity
        ),
    }


def run_cluster_transport(seed_bundle) -> dict:
    """Socket cluster backend vs the local pool: PGPBA/PGSK wall clock
    plus the transport breakdown (network bytes, round trips, serialize
    and ipc-wait shares) at 2 and 4 loopback worker daemons.  The
    cluster digest must match the pool digest bit for bit."""
    from repro.engine.cluster import (
        launch_worker,
        shutdown_worker,
        sockets_available,
    )

    if not sockets_available():
        return {"skipped": "loopback sockets unavailable"}
    graph, analysis = seed_bundle.graph, seed_bundle.analysis
    pgsk = PGSK(seed=11, kronfit_iterations=8, kronfit_swaps=30)
    initiator = pgsk.fit_initiator(graph)
    size = min(_sizes())
    counts = (2,) if os.environ.get("REPRO_BENCH_SMOKE") else (2, 4)
    records: list[dict] = []
    for n_workers in counts:
        procs, addrs = [], []
        for _ in range(n_workers):
            proc, addr = launch_worker()
            procs.append(proc)
            addrs.append(addr)
        try:
            for algo in ("PGPBA", "PGSK"):

                def generate(ctx, algo=algo):
                    if algo == "PGPBA":
                        return PGPBA(fraction=2.0, seed=11).generate(
                            graph, analysis, size, context=ctx
                        )
                    return pgsk.generate(
                        graph, analysis, size,
                        context=ctx, initiator=initiator,
                    )

                with ClusterContext(
                    n_nodes=4, executor_cores=12, partition_multiplier=2,
                    executor="pool", local_workers=n_workers,
                ) as ctx:
                    result, pool_wall = measure_wall(
                        lambda: generate(ctx)
                    )
                    pool_digest = _graph_digest(result.graph)
                with ClusterContext(
                    n_nodes=4, executor_cores=12, partition_multiplier=2,
                    executor="cluster", workers=addrs,
                ) as ctx:
                    result, wall = measure_wall(lambda: generate(ctx))
                    digest = _graph_digest(result.graph)
                    transport = ctx.metrics.transport_breakdown()
                records.append(
                    {
                        "algorithm": algo,
                        "target_edges": size,
                        "workers": n_workers,
                        "wall_seconds": round(wall, 4),
                        "pool_wall_seconds": round(pool_wall, 4),
                        "cluster_over_pool": round(wall / pool_wall, 3)
                        if pool_wall
                        else None,
                        "network_bytes": int(transport["network_bytes"]),
                        "round_trips": int(transport["round_trips"]),
                        "serialize_seconds": round(
                            transport["serialize_seconds"], 4
                        ),
                        "ipc_wait_seconds": round(
                            transport["ipc_wait_seconds"], 4
                        ),
                        "digest": digest,
                        "digest_matches_pool": digest == pool_digest,
                    }
                )
        finally:
            for addr in addrs:
                shutdown_worker(addr)
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except Exception:
                    proc.kill()
    return {
        "records": records,
        "all_match": all(r["digest_matches_pool"] for r in records),
    }


def run_cluster_pipeline(seed_bundle) -> dict:
    """The pipelined, compressed wire vs its own stop-and-wait baseline:
    PGPBA wall clock at in-flight depth 1 + codec off (the PR 8
    transport, reconstructed) against the shipping defaults (depth 2 +
    zlib), with raw-vs-wire bytes and the overlap fraction.  Digests
    must match the local pool bit for bit."""
    from repro.engine.cluster import (
        launch_worker,
        shutdown_worker,
        sockets_available,
    )

    if not sockets_available():
        return {"skipped": "loopback sockets unavailable"}
    graph, analysis = seed_bundle.graph, seed_bundle.analysis
    size = max(_sizes())

    def generate(ctx):
        return PGPBA(fraction=2.0, seed=11).generate(
            graph, analysis, size, context=ctx
        )

    with ClusterContext(
        n_nodes=4, executor_cores=12, partition_multiplier=2,
        executor="pool", local_workers=2,
    ) as ctx:
        result, pool_wall = measure_wall(lambda: generate(ctx))
        pool_digest = _graph_digest(result.graph)

    knob_vars = (
        "REPRO_MAX_INFLIGHT", "REPRO_WIRE_CODEC", "REPRO_FETCH_PREFETCH"
    )
    configs = [
        {"label": "stop-and-wait", "inflight": "1", "codec": "off"},
        {"label": "pipelined+zlib", "inflight": "2", "codec": "zlib"},
    ]
    records: list[dict] = []
    procs, addrs = [], []
    saved = {v: os.environ.get(v) for v in knob_vars}
    for _ in range(2):
        proc, addr = launch_worker()
        procs.append(proc)
        addrs.append(addr)
    try:
        for cfg in configs:
            os.environ["REPRO_MAX_INFLIGHT"] = cfg["inflight"]
            os.environ["REPRO_WIRE_CODEC"] = cfg["codec"]
            os.environ.pop("REPRO_FETCH_PREFETCH", None)
            with ClusterContext(
                n_nodes=4, executor_cores=12, partition_multiplier=2,
                executor="cluster", workers=addrs,
            ) as ctx:
                result, wall = measure_wall(lambda: generate(ctx))
                digest = _graph_digest(result.graph)
                transport = ctx.metrics.transport_breakdown()
            wire = int(transport["network_bytes"])
            raw = int(transport["network_raw_bytes"])
            records.append(
                {
                    "config": cfg["label"],
                    "max_inflight": int(cfg["inflight"]),
                    "wire_codec": cfg["codec"],
                    "target_edges": size,
                    "workers": 2,
                    "wall_seconds": round(wall, 4),
                    "cluster_over_pool": round(wall / pool_wall, 3)
                    if pool_wall
                    else None,
                    "network_bytes": wire,
                    "network_raw_bytes": raw,
                    "compression_ratio": round(raw / wire, 3)
                    if wire
                    else None,
                    "overlap_seconds": round(
                        transport["overlap_seconds"], 4
                    ),
                    "overlap_fraction": round(
                        transport["overlap_seconds"] / wall, 4
                    )
                    if wall
                    else None,
                    "round_trips": int(transport["round_trips"]),
                    "digest": digest,
                    "digest_matches_pool": digest == pool_digest,
                }
            )
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        for addr in addrs:
            shutdown_worker(addr)
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()

    return {
        "target_edges": size,
        "pool_wall_seconds": round(pool_wall, 4),
        "pool_digest": pool_digest,
        "records": records,
        "all_match": all(r["digest_matches_pool"] for r in records),
    }


def run_engine_wallclock(seed_bundle) -> dict:
    backends = run_backend_sweep(seed_bundle)
    cluster = run_cluster_transport(seed_bundle)
    cluster_transport = run_cluster_pipeline(seed_bundle)
    fusion = run_fusion_comparison()
    recovery = run_fault_recovery()
    spill = run_storage_spill()
    codec = run_storage_codec()
    out_of_core = run_out_of_core(seed_bundle)
    report = {
        "cpu_count": os.cpu_count(),
        "backends": backends,
        "cluster": cluster,
        "cluster_transport": cluster_transport,
        "stage_fusion": fusion,
        "fault_recovery": recovery,
        "storage_spill": spill,
        "storage_codec": codec,
        "out_of_core": out_of_core,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    headers = [
        "algorithm", "target", "backend", "wkrs", "wall_s", "speedup",
        "emit->disp", "sim_s", "digest",
    ]
    rows = [
        [
            r["algorithm"], r["target_edges"], r["backend"],
            r["workers"],
            f"{r['wall_seconds']:.3f}", f"{r['speedup_vs_serial']:.2f}",
            f"{r['tasks_emitted']}->{r['tasks_dispatched']}",
            f"{r['simulated_seconds']:.4f}", r["digest"],
        ]
        for r in backends
    ]
    table = format_table(headers, rows)
    print(f"\n== Engine wall-clock: executor backends ==\n{table}")
    if "records" in cluster:
        cluster_rows = [
            [
                r["algorithm"], r["workers"],
                f"{r['wall_seconds']:.3f}",
                f"{r['pool_wall_seconds']:.3f}",
                f"{r['cluster_over_pool']:.2f}x",
                f"{r['network_bytes'] / 2**20:.1f}",
                r["round_trips"],
                str(r["digest_matches_pool"]),
            ]
            for r in cluster["records"]
        ]
        print(
            "\n== Cluster transport: socket daemons vs local pool ==\n"
            + format_table(
                [
                    "algorithm", "daemons", "wall_s", "pool_s",
                    "vs pool", "net MiB", "round trips", "match",
                ],
                cluster_rows,
            )
        )
    if "records" in cluster_transport:
        pipe_rows = [
            [
                r["config"], r["max_inflight"], r["wire_codec"],
                f"{r['wall_seconds']:.3f}",
                f"{r['cluster_over_pool']:.2f}x",
                f"{r['network_raw_bytes'] / 2**20:.1f}",
                f"{r['network_bytes'] / 2**20:.1f}",
                f"{r['compression_ratio']:.2f}x"
                if r["compression_ratio"]
                else "-",
                f"{r['overlap_fraction']:.0%}"
                if r["overlap_fraction"] is not None
                else "-",
                str(r["digest_matches_pool"]),
            ]
            for r in cluster_transport["records"]
        ]
        print(
            "\n== Cluster transport: pipelining + wire compression "
            f"(PGPBA {cluster_transport['target_edges']:,} edges, "
            f"pool baseline {cluster_transport['pool_wall_seconds']:.3f} "
            "s) ==\n"
            + format_table(
                [
                    "config", "inflight", "codec", "wall_s", "vs pool",
                    "raw MiB", "wire MiB", "ratio", "overlap", "match",
                ],
                pipe_rows,
            )
        )
    print(
        "\n== stage fusion vs eager "
        f"({fusion['rows']:,} rows, serial backend) ==\n"
        f"eager : {fusion['eager']['wall_seconds']:.3f} s  "
        f"{fusion['eager']['peak_tracemalloc_bytes'] / 2**20:8.1f} MiB\n"
        f"fused : {fusion['fused']['wall_seconds']:.3f} s  "
        f"{fusion['fused']['peak_tracemalloc_bytes'] / 2**20:8.1f} MiB\n"
        f"ratio : {fusion['wall_eager_over_fused']:.2f}x wall, "
        f"{fusion['mem_eager_over_fused']:.2f}x memory "
        f"(digests match: {fusion['digests_match']}, "
        f"stages match: {fusion['stage_structure_match']})"
    )
    faulted = recovery["faulted"]
    print(
        "\n== fault recovery "
        f"({recovery['rows']:,} rows, threads backend) ==\n"
        f"clean   : {recovery['clean']['wall_seconds']:.3f} s\n"
        f"faulted : {faulted['wall_seconds']:.3f} s "
        f"({recovery['wall_faulted_over_clean']:.2f}x), "
        f"{faulted['tasks_failed']} failed / "
        f"{faulted['tasks_retried']} retried, "
        f"{faulted['recovery_recompute_bytes'] / 2**20:.1f} MiB recomputed "
        f"(digests match: {recovery['digests_match']}, "
        f"stages match: {recovery['stage_structure_match']})"
    )
    budgeted = spill["budgeted"]
    print(
        "\n== storage spill: grow/distinct "
        f"({spill['rows']:,} rows, serial backend, "
        f"{spill['budget_bytes'] / 2**20:.0f} MiB budget) ==\n"
        f"unlimited : {spill['unlimited']['wall_seconds']:.3f} s  "
        f"{spill['unlimited']['peak_tracemalloc_bytes'] / 2**20:8.1f} MiB "
        f"peak, {spill['unlimited']['disk_high_water_bytes'] / 2**20:.1f} "
        "MiB disk\n"
        f"budgeted  : {budgeted['wall_seconds']:.3f} s  "
        f"{budgeted['peak_tracemalloc_bytes'] / 2**20:8.1f} MiB peak, "
        f"{budgeted['disk_high_water_bytes'] / 2**20:.1f} MiB disk "
        f"({budgeted['spill_count']} spills / "
        f"{budgeted['reload_count']} reloads)\n"
        f"ratio     : {spill['wall_budgeted_over_unlimited']:.2f}x wall, "
        f"{spill['mem_unlimited_over_budgeted']:.2f}x memory saved "
        f"(digests match: {spill['digests_match']}, "
        f"stages match: {spill['stage_structure_match']})"
    )
    print(
        "\n== storage codecs: grow/distinct "
        f"({codec['rows']:,} rows, serial backend, "
        f"{codec['budget_bytes'] / 2**20:.0f} MiB budget) =="
    )
    codec_rows = [
        [
            name,
            f"{c['wall_seconds']:.3f}",
            f"{c['disk_written_bytes'] / 2**20:.1f}",
            f"{c['compression_ratio']:.2f}x",
            f"{c['codec_encode_seconds']:.3f}",
            f"{c['codec_decode_seconds']:.3f}",
        ]
        for name, c in codec["codecs"].items()
    ]
    print(
        format_table(
            ["codec", "wall s", "disk MiB", "ratio", "enc s", "dec s"],
            codec_rows,
        )
    )
    print(
        f"digests match: {codec['digests_match']}, "
        f"stages match: {codec['stage_structure_match']}"
    )
    ooc = out_of_core
    print(
        "\n== out-of-core PGPBA structure growth "
        f"(zlib, {ooc['budget_bytes'] / 2**20:.0f} MiB "
        "budget, serial backend) =="
    )
    ooc_rows = [
        [
            f"{s['target_edges']:,}",
            f"{s['edges']:,}",
            f"{s['wall_seconds']:.1f}",
            f"{s['edges_per_second']:,}",
            f"{s['peak_tracemalloc_bytes'] / 2**20:.0f}",
            f"{s['disk_high_water_bytes'] / 2**20:.0f}",
            f"{s['compression_ratio']:.2f}x",
            str(s["under_budget"]),
        ]
        for s in ooc["scaling"]
    ]
    print(
        format_table(
            [
                "target", "edges", "wall s", "edges/s", "peak MiB",
                "disk MiB", "ratio", "under budget",
            ],
            ooc_rows,
        )
    )
    print(
        f"parity at {ooc['parity_target_edges']:,} edges across "
        f"{len(ooc['parity'])} backend x codec runs: "
        f"all match = {ooc['parity_all_match']}"
        f"\n\nwritten to {JSON_PATH}"
    )
    return report


# ----------------------------------------------------------------------
def test_engine_wallclock(benchmark, seed_bundle):
    report = run_engine_wallclock(seed_bundle)

    # Hard determinism requirement: every backend produced the
    # bit-identical graph for the same (algorithm, size, seed).
    by_case: dict[tuple, set] = {}
    for r in report["backends"]:
        by_case.setdefault(
            (r["algorithm"], r["target_edges"]), set()
        ).add(r["digest"])
        assert r["n_tasks"] > 0
    for case, digests in by_case.items():
        assert len(digests) == 1, f"backends disagree on {case}: {digests}"

    # Adaptive coalescing really thinned the physical dispatch stream
    # (the simulated n_tasks is untouched — checked via the digests and
    # stage structures above).
    for r in report["backends"]:
        assert r["tasks_dispatched"] <= r["tasks_emitted"]
        assert r["tasks_emitted"] > 0
    largest = max(_sizes())
    pgpba_large = [
        r for r in report["backends"]
        if r["algorithm"] == "PGPBA" and r["target_edges"] == largest
    ]
    assert max(r["dispatch_ratio"] for r in pgpba_large) >= 4.0, (
        "expected >= 4x fewer physical dispatches at the largest PGPBA"
    )
    if (os.cpu_count() or 1) >= 4 and not os.environ.get(
        "REPRO_BENCH_SMOKE"
    ):
        pool_wall = min(
            r["wall_seconds"] for r in pgpba_large
            if r["backend"] == "pool"
        )
        serial_wall = next(
            r["wall_seconds"] for r in pgpba_large
            if r["backend"] == "serial"
        )
        assert pool_wall <= serial_wall, (
            f"pool ({pool_wall:.3f}s) slower than serial "
            f"({serial_wall:.3f}s) with real cores available"
        )

    # Cluster transport: byte-identical to the pool on every
    # (algorithm, daemon-count) pair, with real traffic on the wire.
    cluster = report["cluster"]
    if "records" in cluster:
        assert cluster["all_match"], (
            "cluster runs diverged from pool: "
            + ", ".join(
                f"{r['algorithm']}@{r['workers']}"
                for r in cluster["records"]
                if not r["digest_matches_pool"]
            )
        )
        for r in cluster["records"]:
            assert r["network_bytes"] > 0
            assert r["round_trips"] > 0

    # Pipelined transport: every configuration byte-identical to the
    # pool, compression really shrinking the wire, and — with real cores
    # and the full sizes — the defaults keeping the cluster within
    # 1.25x of the local pool while zlib at least halves the bytes.
    pipe = report["cluster_transport"]
    if "records" in pipe:
        assert pipe["all_match"], (
            "pipelined cluster runs diverged from pool: "
            + ", ".join(
                r["config"]
                for r in pipe["records"]
                if not r["digest_matches_pool"]
            )
        )
        by_config = {r["config"]: r for r in pipe["records"]}
        baseline = by_config["stop-and-wait"]
        shipped = by_config["pipelined+zlib"]
        assert baseline["network_bytes"] == baseline["network_raw_bytes"]
        assert shipped["network_bytes"] < shipped["network_raw_bytes"], (
            "zlib wire codec produced no compression"
        )
        assert shipped["overlap_seconds"] >= 0.0
        if not os.environ.get("REPRO_BENCH_SMOKE"):
            # Hardware-independent: at the full PGPBA size the edge
            # payloads compress far better than 2x (measured ~7x).
            assert shipped["compression_ratio"] >= 2.0, (
                f"zlib wire ratio {shipped['compression_ratio']:.2f}x, "
                "expected >= 2x"
            )
        if (os.cpu_count() or 1) >= 4 and not os.environ.get(
            "REPRO_BENCH_SMOKE"
        ):
            # With real cores the driver's compression and the daemons'
            # compute overlap; on a starved host they serialize, so the
            # wall target is gated like the other hardware asserts.
            assert shipped["cluster_over_pool"] <= 1.25, (
                f"pipelined cluster {shipped['cluster_over_pool']:.2f}x "
                "over pool, expected <= 1.25x"
            )

    # Stage fusion: same dataset, same simulated stages, >= 1.3x better
    # wall clock or peak driver memory than the eager path.
    fusion = report["stage_fusion"]
    assert fusion["digests_match"], "fusion changed the dataset"
    assert fusion["stage_structure_match"], (
        "fusion changed the simulated stage structure"
    )
    best = max(
        fusion["wall_eager_over_fused"], fusion["mem_eager_over_fused"]
    )
    assert best >= 1.3, (
        f"expected >= 1.3x fusion win on wall or memory, got "
        f"{fusion['wall_eager_over_fused']:.2f}x wall / "
        f"{fusion['mem_eager_over_fused']:.2f}x memory"
    )

    # Fault recovery: identical dataset and simulated stages; the plan
    # really injected failures.
    recovery = report["fault_recovery"]
    assert recovery["digests_match"], "recovery changed the dataset"
    assert recovery["stage_structure_match"], (
        "recovery changed the simulated stage structure"
    )
    assert recovery["faulted"]["tasks_failed"] > 0
    assert recovery["clean"]["tasks_failed"] == 0

    # Storage spill: identical dataset and simulated stages under the
    # budget; the budgeted run keeps driver memory near the budget (plus
    # a transient-allocation allowance) with the overflow on disk, while
    # the unlimited run never touches disk.
    spill = report["storage_spill"]
    assert spill["digests_match"], "the memory budget changed the dataset"
    assert spill["stage_structure_match"], (
        "the memory budget changed the simulated stage structure"
    )
    budgeted, unlimited = spill["budgeted"], spill["unlimited"]
    assert budgeted["spill_count"] > 0
    assert budgeted["disk_high_water_bytes"] > 0
    assert unlimited["disk_high_water_bytes"] == 0
    assert (
        budgeted["peak_tracemalloc_bytes"]
        < unlimited["peak_tracemalloc_bytes"]
    ), "budgeted run should peak below the unlimited run"
    allowance = max(32 * 2**20, 8 * budgeted["max_partition_bytes"])
    ceiling = spill["budget_bytes"] + allowance
    assert budgeted["peak_tracemalloc_bytes"] <= ceiling, (
        f"budgeted peak {budgeted['peak_tracemalloc_bytes']:,} exceeds "
        f"budget + allowance {ceiling:,}"
    )

    # Storage codecs: pure physical knobs — identical dataset and
    # simulated stages for every codec; the compressing codecs really
    # shrank the on-disk footprint of the spilled integer columns.
    codec = report["storage_codec"]
    assert codec["digests_match"], "a block codec changed the dataset"
    assert codec["stage_structure_match"], (
        "a block codec changed the simulated stage structure"
    )
    zlib_out = codec["codecs"]["zlib"]
    assert zlib_out["compression_ratio"] >= 1.2, (
        "zlib failed to compress the spilled columns: "
        f"{zlib_out['compression_ratio']:.2f}x"
    )
    assert (
        zlib_out["disk_written_bytes"]
        < codec["codecs"]["mmap"]["disk_written_bytes"]
    )

    # Out of core: every scaling point stayed under the memory budget
    # (plus the transient allowance) while the grown edge set lived on
    # disk, and the budgeted backend x codec matrix reproduced the
    # unbudgeted in-memory reference bit for bit.
    ooc = report["out_of_core"]
    for point in ooc["scaling"]:
        assert point["under_budget"], (
            f"{point['target_edges']:,}-edge growth peaked at "
            f"{point['peak_tracemalloc_bytes']:,} bytes over the "
            f"{ooc['budget_bytes']:,}-byte budget"
        )
        assert point["edges"] >= point["target_edges"]
        assert point["disk_high_water_bytes"] > 0
    assert ooc["parity_all_match"], (
        "out-of-core runs diverged from the in-memory reference: "
        + ", ".join(
            f"{p['backend']}/{p['codec']}" for p in ooc["parity"]
            if not (p["digest_match"] and p["stage_structure_match"])
        )
    )

    # Parallel wall-clock win is only observable with real cores.
    if (os.cpu_count() or 1) >= 4 and not os.environ.get(
        "REPRO_BENCH_SMOKE"
    ):
        best = max(
            r["speedup_vs_serial"]
            for r in report["backends"]
            if r["backend"] != "serial"
            and r["algorithm"] == "PGPBA"
            and r["target_edges"] == max(_sizes())
        )
        assert best >= 2.0, f"expected >= 2x PGPBA speedup, got {best:.2f}x"

    benchmark.pedantic(run_fusion_comparison, rounds=1, iterations=1)


if __name__ == "__main__":
    run_engine_wallclock(cached_seed())
