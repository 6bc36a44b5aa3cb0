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
narrowest persisted or source ancestor), and a seeded
:class:`~repro.engine.faults.FaultPlan` can deterministically inject
exceptions and worker deaths to prove recovery is bit-identical to the
fault-free run.
"""

from repro.engine.context import ClusterContext
from repro.engine.executor import (
    Executor,
    PoolExecutor,
    RecoveryStats,
    RemoteTaskError,
    SerialExecutor,
    TaskOutcome,
    ThreadExecutor,
    TransportProfile,
    WorkerDied,
    available_backends,
    make_executor,
    run_with_recovery,
)
from repro.engine.faults import (
    FaultPlan,
    InjectedFault,
    SimulatedWorkerDeath,
)
from repro.engine.rdd import ArrayRDD
from repro.engine.scheduler import ClusterScheduler, NodeSpec
from repro.engine.metrics import SimulationMetrics, TaskRecord
from repro.engine.storage import BlockId, BlockStore

__all__ = [
    "ClusterContext",
    "ArrayRDD",
    "ClusterScheduler",
    "NodeSpec",
    "SimulationMetrics",
    "TaskRecord",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "PoolExecutor",
    "TaskOutcome",
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
    "BlockId",
    "BlockStore",
]
