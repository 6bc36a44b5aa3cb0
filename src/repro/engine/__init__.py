"""Map-Reduce execution substrate (the Apache Spark / GraphX stand-in).

The paper's generators are "implemented on the only distributed graph
processing platform ... that supports property graphs: Apache Spark with
the GraphX library".  This package reproduces the programming model the
algorithms rely on — partitioned datasets with ``sample`` / ``distinct`` /
``map_partitions`` / ``reduce`` — executing the *real* computation locally
while a :class:`~repro.engine.scheduler.ClusterScheduler` models the
cluster: N compute nodes, a configurable executor-core count whose useful
parallelism saturates (the paper measured 12 of 20 cores, Fig. 8), task
waves, and per-node memory meters (Fig. 11).  Scalability figures are read
from the simulated clock; veracity figures from the real data.

Like its Spark original, the execution layer survives task failures:
every batch runs through lineage-based recovery (retry from the
narrowest persisted or source ancestor, optional speculative
re-execution of stragglers), and a seeded
:class:`~repro.engine.faults.FaultPlan` can deterministically inject
exceptions, worker deaths and stragglers to prove recovery is
bit-identical to the fault-free run.
"""

from repro.engine.cluster import (
    CLUSTER_WORKERS_ENV_VAR,
    FETCH_PREFETCH_ENV_VAR,
    BlockFetcher,
    ClusterExecutor,
    WorkerDaemon,
    launch_worker,
    resolve_cluster_workers,
    resolve_fetch_prefetch,
    shutdown_worker,
    sockets_available,
)
from repro.engine.netproto import (
    MAX_INFLIGHT_ENV_VAR,
    WIRE_CODEC_ENV_VAR,
    resolve_max_inflight,
    resolve_wire_codec,
)
from repro.engine.context import ClusterContext
from repro.engine.executor import (
    TASK_BATCH_ENV_VAR,
    Executor,
    PoolExecutor,
    RecoveryStats,
    RemoteTaskError,
    SerialExecutor,
    SpeculationPolicy,
    TaskOutcome,
    ThreadExecutor,
    TransportProfile,
    WorkerDied,
    available_backends,
    make_executor,
    resolve_task_batch,
    run_with_recovery,
)
from repro.engine.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    InjectedFault,
    SimulatedWorkerDeath,
    resolve_max_task_retries,
    resolve_speculation,
)
from repro.engine.plan import (
    DEFAULT_TARGET_PARTITION_BYTES,
    FUSION_ENV_VAR,
    TARGET_PARTITION_BYTES_ENV_VAR,
    resolve_fusion,
    resolve_target_partition_bytes,
)
from repro.engine.rdd import SHUFFLE_ENV_VAR, ArrayRDD, resolve_shuffle
from repro.engine.scheduler import ClusterScheduler, NodeSpec
from repro.engine.metrics import SimulationMetrics, TaskRecord
from repro.engine.storage import (
    BLOCK_CODEC_ENV_VAR,
    CODEC_CHUNK_BYTES_ENV_VAR,
    CODECS,
    DEFAULT_CODEC,
    MEMORY_BUDGET_ENV_VAR,
    SPILL_DIR_ENV_VAR,
    BlockCodec,
    BlockId,
    BlockStore,
    SpilledBlockHandle,
    StorageLevel,
    StorageStats,
    get_codec,
    parse_size,
    resolve_block_codec,
    resolve_codec_chunk_bytes,
    resolve_memory_budget,
    resolve_spill_dir,
)
from repro.engine.stream import (
    EMIT_CHUNK_ROWS_ENV_VAR,
    EXTSORT_CHUNK_ROWS_ENV_VAR,
    iter_repeat_chunks,
    resolve_emit_chunk_rows,
    resolve_extsort_chunk_rows,
)

__all__ = [
    "ClusterContext",
    "ArrayRDD",
    "CLUSTER_WORKERS_ENV_VAR",
    "FETCH_PREFETCH_ENV_VAR",
    "MAX_INFLIGHT_ENV_VAR",
    "WIRE_CODEC_ENV_VAR",
    "BlockFetcher",
    "ClusterExecutor",
    "WorkerDaemon",
    "launch_worker",
    "resolve_cluster_workers",
    "resolve_fetch_prefetch",
    "resolve_max_inflight",
    "resolve_wire_codec",
    "shutdown_worker",
    "sockets_available",
    "FUSION_ENV_VAR",
    "FAULTS_ENV_VAR",
    "TARGET_PARTITION_BYTES_ENV_VAR",
    "TASK_BATCH_ENV_VAR",
    "DEFAULT_TARGET_PARTITION_BYTES",
    "resolve_fusion",
    "resolve_target_partition_bytes",
    "resolve_task_batch",
    "ClusterScheduler",
    "NodeSpec",
    "SimulationMetrics",
    "TaskRecord",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "PoolExecutor",
    "TaskOutcome",
    "SpeculationPolicy",
    "RecoveryStats",
    "TransportProfile",
    "WorkerDied",
    "RemoteTaskError",
    "run_with_recovery",
    "make_executor",
    "available_backends",
    "FaultPlan",
    "InjectedFault",
    "SimulatedWorkerDeath",
    "resolve_max_task_retries",
    "resolve_speculation",
    "MEMORY_BUDGET_ENV_VAR",
    "SPILL_DIR_ENV_VAR",
    "BLOCK_CODEC_ENV_VAR",
    "CODEC_CHUNK_BYTES_ENV_VAR",
    "SHUFFLE_ENV_VAR",
    "EMIT_CHUNK_ROWS_ENV_VAR",
    "EXTSORT_CHUNK_ROWS_ENV_VAR",
    "CODECS",
    "DEFAULT_CODEC",
    "BlockCodec",
    "BlockId",
    "BlockStore",
    "SpilledBlockHandle",
    "StorageLevel",
    "StorageStats",
    "get_codec",
    "parse_size",
    "iter_repeat_chunks",
    "resolve_block_codec",
    "resolve_codec_chunk_bytes",
    "resolve_emit_chunk_rows",
    "resolve_extsort_chunk_rows",
    "resolve_memory_budget",
    "resolve_shuffle",
    "resolve_spill_dir",
]
