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

Unlike its Spark original, the execution layer retries nothing: every
task is a pure function of ``(seed, partition)``, so a task error fails
its job at once, and a ``pool`` worker that dies fails it with
:class:`~repro.engine.executor.WorkerDied`.
"""

from repro.engine.context import ClusterContext
from repro.engine.executor import (
    Executor,
    PoolExecutor,
    RemoteTaskError,
    SerialExecutor,
    TransportProfile,
    WorkerDied,
    available_backends,
    make_executor,
)
from repro.engine.rdd import ArrayRDD
from repro.engine.scheduler import ClusterScheduler, NodeSpec
from repro.engine.metrics import SimulationMetrics, TaskRecord

__all__ = [
    "ClusterContext",
    "ArrayRDD",
    "ClusterScheduler",
    "NodeSpec",
    "SimulationMetrics",
    "TaskRecord",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "TransportProfile",
    "WorkerDied",
    "RemoteTaskError",
    "make_executor",
    "available_backends",
]
