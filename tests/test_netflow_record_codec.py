"""Unit tests for FlowTable, its ``.npz`` form, and the graph mapping."""

import numpy as np
import pytest

from repro.graph import PropertyGraph
from repro.netflow import (
    FlowTable,
    NetflowRecord,
    Protocol,
    TcpState,
    flow_table_to_property_graph,
)
from repro.netflow.attributes import NETFLOW_EDGE_ATTRIBUTES
from repro.netflow.mapping import property_graph_to_flow_columns


def records():
    return [
        NetflowRecord(
            src_ip=10, dst_ip=20, protocol=Protocol.TCP,
            src_port=1000, dst_port=80, start_time=5.0, duration_ms=120.0,
            out_bytes=300, in_bytes=4000, out_pkts=5, in_pkts=6,
            state=TcpState.SF, syn_count=2, ack_count=9,
        ),
        NetflowRecord(
            src_ip=11, dst_ip=20, protocol=Protocol.UDP,
            src_port=5000, dst_port=53, start_time=6.5, duration_ms=3.0,
            out_bytes=40, in_bytes=100, out_pkts=1, in_pkts=1,
            state=TcpState.NONE,
        ),
        NetflowRecord(
            src_ip=10, dst_ip=20, protocol=Protocol.TCP,
            src_port=1001, dst_port=443, start_time=7.0, duration_ms=80.0,
            out_bytes=200, in_bytes=999, out_pkts=4, in_pkts=4,
            state=TcpState.S1, syn_count=2, ack_count=5,
        ),
    ]


class TestFlowTable:
    def test_from_records(self):
        t = FlowTable.from_records(records())
        assert len(t) == 3
        assert t["OUT_BYTES"].tolist() == [300, 40, 200]
        assert t["STATE"].tolist() == [
            int(TcpState.SF), int(TcpState.NONE), int(TcpState.S1)
        ]

    def test_records_roundtrip(self):
        t = FlowTable.from_records(records())
        assert list(t.records()) == records()

    def test_empty(self):
        t = FlowTable.empty()
        assert len(t) == 0
        assert t.hosts().size == 0

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            FlowTable({"SRC_IP": np.array([1])})

    def test_select(self):
        t = FlowTable.from_records(records())
        sub = t.select(t["PROTOCOL"] == int(Protocol.TCP))
        assert len(sub) == 2

    def test_concat(self):
        t = FlowTable.from_records(records())
        both = t.concat(t)
        assert len(both) == 6

    def test_hosts_sorted_unique(self):
        t = FlowTable.from_records(records())
        assert t.hosts().tolist() == [10, 11, 20]

    def test_edge_attribute_columns_order(self):
        t = FlowTable.from_records(records())
        assert tuple(t.edge_attribute_columns()) == NETFLOW_EDGE_ATTRIBUTES

    def test_npz_roundtrip(self, tmp_path):
        t = FlowTable.from_records(records())
        p = tmp_path / "flows.npz"
        t.save_npz(p)
        back = FlowTable.load_npz(p)
        assert list(back.records()) == records()


class TestGraphMapping:
    def test_hosts_become_vertices(self):
        g = flow_table_to_property_graph(FlowTable.from_records(records()))
        assert g.n_vertices == 3
        assert g.vertex_properties["ID"].tolist() == [10, 11, 20]

    def test_flows_become_edges_multiset(self):
        g = flow_table_to_property_graph(FlowTable.from_records(records()))
        assert g.n_edges == 3
        # Two flows 10 -> 20 are parallel edges.
        assert sorted(g.edge_multiplicities().tolist()) == [1, 2]

    def test_nine_attributes_present(self):
        g = flow_table_to_property_graph(FlowTable.from_records(records()))
        for name in NETFLOW_EDGE_ATTRIBUTES:
            assert name in g.edge_properties

    def test_attribute_alignment(self):
        t = FlowTable.from_records(records())
        g = flow_table_to_property_graph(t)
        assert np.array_equal(g.edge_properties["OUT_BYTES"], t["OUT_BYTES"])

    def test_empty_table(self):
        g = flow_table_to_property_graph(FlowTable.empty())
        assert g.n_vertices == 0

    def test_columns_roundtrip(self):
        t = FlowTable.from_records(records())
        g = flow_table_to_property_graph(t)
        cols = property_graph_to_flow_columns(g)
        assert np.array_equal(np.sort(cols["SRC_IP"]), np.sort(t["SRC_IP"]))
        assert np.array_equal(cols["DEST_PORT"], t["DEST_PORT"])

    def test_columns_without_id_property(self):
        g = PropertyGraph(
            3, np.array([0, 1]), np.array([2, 2]),
            edge_properties={"OUT_BYTES": np.array([1, 2])},
        )
        cols = property_graph_to_flow_columns(g)
        assert cols["SRC_IP"].tolist() == [0, 1]
