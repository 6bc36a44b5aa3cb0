"""Unit tests for the trace substrate: hosts, workloads, synthesizer, attacks."""

import hashlib

import numpy as np
import pytest

from repro.core.pipeline import packets_from
from repro.netflow import Protocol, TcpState, assemble_flows
from repro.trace import (
    HostPopulation,
    STANDARD_WORKLOADS,
    TraceSynthesizer,
    attacks,
    synthesize_seed_packets,
)
from repro.trace.hosts import ipv4
from repro.trace.workloads import sample_workload


class TestHosts:
    def test_ipv4_packing(self):
        assert ipv4(10, 0, 0, 1) == (10 << 24) + 1
        with pytest.raises(ValueError):
            ipv4(256, 0, 0, 0)

    def test_pools_disjoint(self):
        pop = HostPopulation(n_clients=50, n_servers=10)
        assert not set(pop.clients.tolist()) & set(pop.servers.tolist())

    def test_zipf_server_popularity(self, rng):
        pop = HostPopulation(n_servers=20, server_zipf_exponent=1.5)
        s = pop.sample_servers(20_000, rng)
        counts = np.asarray(
            [(s == srv).sum() for srv in pop.servers]
        )
        # rank-1 server clearly dominates rank-10
        assert counts[0] > 3 * counts[9]

    def test_external_fraction(self, rng):
        pop = HostPopulation(external_fraction=0.5)
        d = pop.sample_destinations(10_000, rng)
        external = ~np.isin(d, pop.servers)
        assert np.mean(external) == pytest.approx(0.5, abs=0.05)

    def test_zero_external(self, rng):
        pop = HostPopulation(external_fraction=0.0)
        d = pop.sample_destinations(1000, rng)
        assert np.isin(d, pop.servers).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            HostPopulation(n_clients=0)
        with pytest.raises(ValueError):
            HostPopulation(external_fraction=1.0)


class TestWorkloads:
    def test_weighted_sampling_hits_all(self, rng):
        names = {sample_workload(rng).name for _ in range(3000)}
        assert names == {w.name for w in STANDARD_WORKLOADS}

    def test_size_samplers_bounded(self, rng):
        for w in STANDARD_WORKLOADS:
            for _ in range(50):
                assert 1 <= w.sample_request_size(rng) <= 1400
                assert 1 <= w.sample_response_size(rng) <= 1400

    def test_exchange_bounds(self, rng):
        for w in STANDARD_WORKLOADS:
            lo, hi = w.exchanges
            for _ in range(50):
                assert lo <= w.sample_exchanges(rng) <= hi


class TestSynthesizer:
    def test_deterministic(self):
        a = synthesize_seed_packets(duration=3.0, session_rate=20, seed=5)
        b = synthesize_seed_packets(duration=3.0, session_rate=20, seed=5)
        assert len(a) == len(b)
        assert all(x[1] == y[1] for x, y in zip(a, b))

    def test_frame_list_is_pinned(self):
        """Every benchmark input starts here: a faster sampler must emit
        the same bytes (digest taken before the scalar ``np.clip`` in the
        size samplers was replaced)."""
        frames = TraceSynthesizer(session_rate=40.0, seed=3).generate(5.0)
        digest = hashlib.sha256()
        for ts, frame in frames:
            digest.update(repr(ts).encode())
            digest.update(frame)
        assert len(frames) == 4064
        assert digest.hexdigest() == (
            "2b54529b68628f4d61a550ce60acf194"
            "81fa81b065f12a12d311f3da9a713096"
        )

    def test_different_seeds_differ(self):
        a = synthesize_seed_packets(duration=3.0, session_rate=20, seed=5)
        b = synthesize_seed_packets(duration=3.0, session_rate=20, seed=6)
        assert any(x[1] != y[1] for x, y in zip(a, b)) or len(a) != len(b)

    def test_time_ordered(self):
        frames = synthesize_seed_packets(duration=3.0, session_rate=30)
        times = [t for t, _ in frames]
        assert times == sorted(times)

    def test_flows_parse_cleanly(self):
        frames = synthesize_seed_packets(duration=5.0, session_rate=30)
        flows = list(assemble_flows(packets_from(frames)))
        assert len(flows) > 20
        protos = {f.protocol for f in flows}
        assert Protocol.TCP in protos and Protocol.UDP in protos

    def test_tcp_sessions_complete(self):
        frames = synthesize_seed_packets(duration=5.0, session_rate=30)
        flows = list(assemble_flows(packets_from(frames)))
        tcp = [f for f in flows if f.protocol is Protocol.TCP]
        sf = sum(1 for f in tcp if f.state is TcpState.SF)
        # The vast majority of synthetic TCP sessions tear down cleanly
        # (sessions still open at capture end report S1).
        assert sf / len(tcp) > 0.8

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TraceSynthesizer(session_rate=0).generate(1.0)
        with pytest.raises(ValueError):
            TraceSynthesizer().generate(0.0)


class TestAttacks:
    def test_syn_flood_frames_are_bare_syns(self):
        gt = attacks.syn_flood(
            attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=50
        )
        assert len(gt.frames) == 50
        flows = list(assemble_flows(packets_from(gt.frames)))
        assert all(f.state is TcpState.S0 for f in flows)
        assert all(f.out_pkts == 1 for f in flows)

    def test_host_scan_port_coverage(self):
        gt = attacks.host_scan(
            attacker_ip=1, victim_ip=2, start_time=0.0, n_ports=100
        )
        flows = list(assemble_flows(packets_from(gt.frames)))
        ports = {f.dst_port for f in flows}
        assert len(ports) == 100

    def test_network_scan_host_coverage(self):
        gt = attacks.network_scan(
            attacker_ip=1, subnet_base=ipv4(10, 9, 0, 0),
            start_time=0.0, n_hosts=60,
        )
        assert len(set(gt.victim_ips)) == 60
        flows = list(assemble_flows(packets_from(gt.frames)))
        assert len({f.dst_ip for f in flows}) == 60

    def test_udp_flood_volume(self):
        gt = attacks.udp_flood(
            attacker_ip=1, victim_ip=2, start_time=0.0,
            n_packets=100, payload=1200,
        )
        flows = list(assemble_flows(packets_from(gt.frames)))
        assert sum(f.out_bytes for f in flows) == 100 * 1200

    def test_icmp_flood_protocol(self):
        gt = attacks.icmp_flood(
            attacker_ip=1, victim_ip=2, start_time=0.0, n_packets=30
        )
        flows = list(assemble_flows(packets_from(gt.frames)))
        assert all(f.protocol is Protocol.ICMP for f in flows)

    def test_ddos_multiple_sources(self):
        ips = tuple(range(100, 105))
        gt = attacks.ddos_syn_flood(
            attacker_ips=ips, victim_ip=2, start_time=0.0,
            packets_per_attacker=20,
        )
        assert gt.attacker_ips == ips
        flows = list(assemble_flows(packets_from(gt.frames)))
        assert {f.src_ip for f in flows} == set(ips)

    def test_ddos_requires_attackers(self):
        with pytest.raises(ValueError):
            attacks.ddos_syn_flood(
                attacker_ips=(), victim_ip=2, start_time=0.0
            )

    def test_frames_time_ordered(self):
        gt = attacks.ddos_syn_flood(
            attacker_ips=(1, 2, 3), victim_ip=9, start_time=0.0
        )
        times = [t for t, _ in gt.frames]
        assert times == sorted(times)

    def test_ground_truth_window(self):
        gt = attacks.syn_flood(
            attacker_ip=1, victim_ip=2, start_time=100.0, duration=5.0
        )
        assert gt.start_time == 100.0
        assert gt.end_time == 105.0
        assert all(100.0 <= t <= 105.0 for t, _ in gt.frames)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda t, d: attacks.syn_flood(
                    attacker_ip=1, victim_ip=2, start_time=t, duration=d
                ),
                id="syn_flood",
            ),
            pytest.param(
                lambda t, d: attacks.host_scan(
                    attacker_ip=1, victim_ip=2, start_time=t, duration=d
                ),
                id="host_scan",
            ),
            pytest.param(
                lambda t, d: attacks.network_scan(
                    attacker_ip=1, subnet_base=ipv4(10, 9, 0, 0),
                    start_time=t, duration=d,
                ),
                id="network_scan",
            ),
            pytest.param(
                lambda t, d: attacks.udp_flood(
                    attacker_ip=1, victim_ip=2, start_time=t, duration=d
                ),
                id="udp_flood",
            ),
            pytest.param(
                lambda t, d: attacks.icmp_flood(
                    attacker_ip=1, victim_ip=2, start_time=t, duration=d
                ),
                id="icmp_flood",
            ),
            pytest.param(
                lambda t, d: attacks.ddos_syn_flood(
                    attacker_ips=(1, 2, 3), victim_ip=9,
                    start_time=t, duration=d,
                ),
                id="ddos_syn_flood",
            ),
        ],
    )
    @pytest.mark.parametrize("start,duration", [(0.0, 5.0), (1_000_123.5, 7.25)])
    def test_every_injector_interval_bounds_frames(
        self, build, start, duration
    ):
        # The ground-truth interval is the time-to-detection reference:
        # every injector's frames must fall inside [start, end].
        gt = build(start, duration)
        assert gt.start_time == start
        assert gt.end_time == pytest.approx(start + duration)
        assert gt.frames, "injector produced no frames"
        for ts, _frame in gt.frames:
            assert gt.start_time <= ts <= gt.end_time
