"""Netflow substrate.

The paper maps Netflow data onto property-graphs: hosts become vertices,
TCP connections / UDP streams become edges carrying nine attributes
(PROTOCOL, SRC_PORT, DEST_PORT, DURATION, OUT_BYTES, IN_BYTES, OUT_PKTS,
IN_PKTS, STATE).  In the original system Bro IDS performed the packet→flow
conversion; the columnar kernel (:func:`~repro.netflow.kernel.assemble_table`
for bounded input, :func:`~repro.netflow.kernel.assemble_batch` with carried
:class:`~repro.netflow.kernel.OpenFlows` for streams) is our from-scratch
equivalent, including a TCP connection state machine producing Bro-style
connection states.  A packet stamped before the capture clock (the running
maximum of the timestamps) is taken as arriving at the clock.  Flow tables
are stored with :meth:`~repro.netflow.record.FlowTable.save_npz`.
"""

from repro.netflow.attributes import (
    Protocol,
    TcpState,
    NETFLOW_EDGE_ATTRIBUTES,
)
from repro.netflow.record import NetflowRecord, FlowTable
from repro.netflow.kernel import assemble_flows, assemble_table
from repro.netflow.mapping import flow_table_to_property_graph

__all__ = [
    "Protocol",
    "TcpState",
    "NETFLOW_EDGE_ATTRIBUTES",
    "NetflowRecord",
    "FlowTable",
    "assemble_flows",
    "assemble_table",
    "flow_table_to_property_graph",
]
