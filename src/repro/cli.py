"""Command-line interface: the CSB-suite-style entry points.

The released suite the paper points to is driven from the command line;
this module provides the equivalent:

* ``synth``    — synthesize a pcap trace (the seed substitute);
* ``analyze``  — pcap -> seed property graph + analysis summary;
* ``generate`` — grow a synthetic property graph (PGPBA or PGSK) and save
  it as .npz and/or an attribute-bearing edge list;
* ``detect``   — run the Fig. 4 anomaly detector over a pcap capture;
* ``veracity`` — score a generated graph against its seed;
* ``query``    — serve the benchmark query workload (nodes, edges,
  paths, sub-graphs) over a saved graph through the concurrent
  ``repro.serve`` layer and report per-family latency percentiles,
  cache hit ratio and queries/second;
* ``engine-info`` — print every ``repro.config`` setting's resolved
  value with its source, for debugging env-vs-flag precedence.

Usage: ``python -m repro.cli <command> --help``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import config

__all__ = ["main", "build_parser"]


def _layer(layer: str) -> list[str]:
    """Names of the settings of one ``repro.config`` layer."""
    return [s.name for s in config.SETTINGS.values() if s.layer == layer]


def _add_cluster_shape_args(p: argparse.ArgumentParser) -> None:
    """The simulated cluster's shape (the paper's Spark knobs)."""
    p.add_argument("--nodes", type=int, default=None,
                   help="simulated cluster size (default 1)")
    p.add_argument("--cores", type=int, default=None,
                   help="executor cores per node (default 12)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Property-graph synthetic data generators for IDS "
        "benchmarking (CLUSTER 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a pcap seed trace")
    p.add_argument("output", type=Path, help="pcap file to write")
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--session-rate", type=float, default=50.0)
    p.add_argument("--clients", type=int, default=200)
    p.add_argument("--servers", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("analyze", help="build + summarise the seed graph")
    p.add_argument("pcap", type=Path, help="input pcap capture")
    p.add_argument(
        "--save", type=Path, default=None,
        help="write the seed property graph to this .npz",
    )

    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("pcap", type=Path, help="seed pcap capture")
    p.add_argument(
        "--algorithm", choices=("pgpba", "pgsk"), default="pgpba"
    )
    p.add_argument("--edges", type=int, required=True,
                   help="desired synthetic size in edges")
    p.add_argument("--fraction", type=float, default=0.1,
                   help="PGPBA growth fraction")
    _add_cluster_shape_args(p)
    config.add_arguments(p, _layer("engine"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save-npz", type=Path, default=None)
    p.add_argument("--save-edges", type=Path, default=None)

    p = sub.add_parser(
        "engine-info",
        help="print every resolved setting and where it came from "
        "(flag, environment variable, or default)",
    )
    _add_cluster_shape_args(p)
    config.add_arguments(p)

    p = sub.add_parser("detect", help="detect anomalies in a capture")
    p.add_argument("pcap", type=Path, help="capture to analyse")
    p.add_argument(
        "--baseline", type=Path, default=None,
        help="attack-free pcap used to calibrate the Table I thresholds "
        "(defaults to the analysed capture itself)",
    )
    p.add_argument("--window", type=float, default=5.0)

    p = sub.add_parser("veracity", help="score synthetic vs seed graph")
    p.add_argument("seed_graph", type=Path, help="seed graph .npz")
    p.add_argument("synthetic_graph", type=Path, help="synthetic graph .npz")

    p = sub.add_parser(
        "query",
        help="serve the benchmark query workload over a saved graph "
        "and report per-family latency percentiles, cache hit ratio "
        "and queries/second",
    )
    p.add_argument("graph", type=Path,
                   help="property graph .npz (e.g. generate --save-npz)")
    p.add_argument("--n-queries", type=int, default=20,
                   help="queries per family (default 20)")
    p.add_argument("--k-hops", type=int, default=2,
                   help="depth of the path queries")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for query target selection")
    p.add_argument(
        "--families", type=str, default=None, metavar="LIST",
        help="comma-separated subset of node,edge,path,subgraph "
        "(default: all four)",
    )
    config.add_arguments(p, _layer("serve"))
    p.add_argument(
        "--repeat", type=int, default=2,
        help="batch rounds; rounds after the first exercise the warm "
        "cache (default 2)",
    )

    p = sub.add_parser(
        "stream",
        help="run the micro-batch streaming pipeline for a bounded "
        "session: synthetic traffic + injected attacks flow through "
        "windowed assembly, the live graph and the online detector; "
        "prints per-stage throughput, backpressure and time-to-detection",
    )
    p.add_argument("--duration", type=float, default=30.0,
                   help="seconds of background traffic (default 30)")
    p.add_argument("--session-rate", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument(
        "--attacks", type=str, default="syn_flood,host_scan",
        metavar="LIST",
        help="comma-separated attacks to inject out of syn_flood, "
        "host_scan, network_scan, udp_flood, icmp_flood, ddos_syn_flood "
        "(default syn_flood,host_scan; 'none' for a clean run)",
    )
    p.add_argument(
        "--replay", type=Path, default=None, metavar="FILE",
        help="replay a .pcap packet trace or a .npz flow-table archive "
        "instead of synthesizing traffic",
    )
    config.add_arguments(p, _layer("stream"))
    p.add_argument("--batch-packets", type=int, default=256,
                   help="packets per source micro-batch (default 256)")
    p.add_argument("--idle-timeout", type=float, default=60.0,
                   help="flow-assembly idle timeout seconds")
    p.add_argument(
        "--sink-delay", type=float, default=0.0,
        help="artificial per-window sink delay in seconds (demonstrates "
        "backpressure)",
    )

    return parser


# ----------------------------------------------------------------------
def _flag_values(args) -> dict:
    """Setting name -> the text its CLI flag was given, ``None`` when
    the flag is absent (or the sub-command has no such flag)."""
    return {
        s.name: getattr(args, s.dest, None)
        for s in config.SETTINGS.values()
        if s.flag
    }


def _setting_rows(names, values) -> list:
    """``(label, value, source)`` per named setting, resolved from
    ``values`` (see :func:`_flag_values`)."""
    rows = []
    for name in names:
        setting = config.SETTINGS[name]
        value = values.get(name)
        rows.append((
            name.replace("_", " "),
            setting.show(config.resolve(name, value)),
            config.source(name, value is not None),
        ))
    return rows


def _print_rows(rows) -> None:
    for label, value, src in rows:
        print(f"{label:<22}: {value:<40} [{src}]")


def _cluster_shape(args) -> dict:
    """``ClusterContext`` keywords for the simulated cluster's shape."""
    return {
        "n_nodes": 1 if args.nodes is None else args.nodes,
        "executor_cores": 12 if args.cores is None else args.cores,
    }


def _make_context(args):
    """Build a ClusterContext from the shared engine flags."""
    from repro.engine import ClusterContext

    values = _flag_values(args)
    return ClusterContext(
        **_cluster_shape(args),
        **{
            config.SETTINGS[name].kwarg: values[name]
            for name in _layer("engine")
            if name in values
        },
    )


def _cmd_synth(args) -> int:
    from repro.pcap.writer import write_pcap
    from repro.trace.synthesizer import synthesize_seed_packets

    frames = synthesize_seed_packets(
        duration=args.duration,
        session_rate=args.session_rate,
        n_clients=args.clients,
        n_servers=args.servers,
        seed=args.seed,
    )
    count = write_pcap(args.output, frames)
    print(f"wrote {count} packets to {args.output}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.core.pipeline import build_seed

    bundle = build_seed(args.pcap)
    g, a = bundle.graph, bundle.analysis
    print(f"hosts (vertices)     : {g.n_vertices}")
    print(f"flows (edges)        : {g.n_edges}")
    print(f"edge attributes      : {sorted(g.edge_properties)}")
    print(f"mean in-degree       : {a.in_degree.mean():.3f}")
    print(f"mean out-degree      : {a.out_degree.mean():.3f}")
    print(f"mean edge multiplicity: {a.multiplicity.mean():.3f}")
    print(f"mean IN_BYTES        : {a.properties.anchor.mean():.1f}")
    if args.save:
        g.save_npz(args.save)
        print(f"seed graph saved to {args.save}")
    return 0


def _cmd_generate(args) -> int:
    import time

    from repro.core import PGPBA, PGSK
    from repro.core.pipeline import build_seed
    from repro.graph.io import write_edge_list

    bundle = build_seed(args.pcap)
    ctx = _make_context(args)
    if args.algorithm == "pgpba":
        gen = PGPBA(fraction=args.fraction, seed=args.seed)
    else:
        gen = PGSK(seed=args.seed)
    t0 = time.perf_counter()
    result = gen.generate(
        bundle.graph, bundle.analysis, args.edges, context=ctx
    )
    wall = time.perf_counter() - t0
    ctx.close()
    print(f"algorithm            : {result.algorithm}")
    print(f"edges                : {result.graph.n_edges}")
    print(f"vertices             : {result.graph.n_vertices}")
    print(f"iterations           : {result.iterations}")
    print(
        "executor             : "
        f"{ctx.executor.name} x{ctx.executor.workers}"
    )
    print(f"wall-clock time      : {wall * 1e3:.2f} ms")
    print(f"simulated time       : {result.total_seconds * 1e3:.2f} ms")
    print(f"throughput           : {result.edges_per_second:,.0f} edges/s")
    print(
        "peak node memory     : "
        f"{result.peak_node_memory_bytes / 2**20:.1f} MiB"
    )
    if args.save_npz:
        result.graph.save_npz(args.save_npz)
        print(f"graph saved to {args.save_npz}")
    if args.save_edges:
        write_edge_list(result.graph, args.save_edges)
        print(f"edge list saved to {args.save_edges}")
    return 0


def _cmd_engine_info(args) -> int:
    shape = _cluster_shape(args)
    print("[simulated cluster]")
    _print_rows([
        ("nodes", str(shape["n_nodes"]),
         "default" if args.nodes is None else "flag"),
        ("cores", str(shape["executor_cores"]),
         "default" if args.cores is None else "flag"),
    ])
    values = _flag_values(args)
    for layer in dict.fromkeys(s.layer for s in config.SETTINGS.values()):
        print(f"[{layer}]")
        _print_rows(_setting_rows(_layer(layer), values))
    return 0


def _cmd_detect(args) -> int:
    from repro.core.pipeline import build_seed
    from repro.detect import DetectionThresholds, NetflowAnomalyDetector
    from repro.netflow.record import FlowTable

    bundle = build_seed(args.pcap)
    cols = {
        k: bundle.flow_table[k] for k in FlowTable.COLUMN_NAMES
    }
    if args.baseline is not None:
        base = build_seed(args.baseline)
        base_cols = {
            k: base.flow_table[k] for k in FlowTable.COLUMN_NAMES
        }
    else:
        base_cols = cols
    thresholds = DetectionThresholds.fit_normal(
        base_cols, window_seconds=args.window
    )
    detector = NetflowAnomalyDetector(thresholds)
    detections = detector.detect_windowed(
        cols, window_seconds=args.window
    )
    if not detections:
        print("no anomalies detected")
        return 0
    for det in detections:
        ip = det.ip
        dotted = ".".join(str((ip >> s) & 0xFF) for s in (24, 16, 8, 0))
        print(
            f"{det.kind:<18} {det.direction:<11} {dotted:<15} "
            f"flows={det.evidence['n_flows']}"
        )
    return 0


def _cmd_veracity(args) -> int:
    from repro.core import evaluate_veracity
    from repro.graph import PropertyGraph

    seed = PropertyGraph.load_npz(args.seed_graph)
    synthetic = PropertyGraph.load_npz(args.synthetic_graph)
    report = evaluate_veracity(seed, synthetic)
    print(f"synthetic edges      : {report.n_edges}")
    print(f"degree veracity      : {report.degree_score:.6e}")
    print(f"pagerank veracity    : {report.pagerank_score:.6e}")
    print(f"degree shape KS      : {report.degree_ks:.4f}")
    print(f"pagerank shape KS    : {report.pagerank_ks:.4f}")
    return 0


def _cmd_query(args) -> int:
    import time

    from repro.graph import PropertyGraph
    from repro.queries import QueryWorkload
    from repro.serve import QueryServer

    graph = PropertyGraph.load_npz(args.graph)
    if graph.n_vertices == 0 or graph.n_edges == 0:
        print("graph is empty; nothing to query", file=sys.stderr)
        return 1
    families = None
    if args.families:
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        unknown = set(families) - {"node", "edge", "path", "subgraph"}
        if unknown:
            print(f"unknown families: {sorted(unknown)}", file=sys.stderr)
            return 2
    if args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    workload = QueryWorkload(
        n_queries=args.n_queries, k_hops=args.k_hops, seed=args.seed
    )
    t0 = time.perf_counter()
    snapshot = graph.snapshot()
    build_seconds = time.perf_counter() - t0
    batch = workload.build_queries(snapshot, families=families)
    if not batch:
        print("no queries to run (edge-only families need Netflow "
              "attributes)", file=sys.stderr)
        return 1
    server = QueryServer(
        snapshot, threads=args.threads, cache_size=args.cache_size
    )
    print(f"graph                : {graph.n_vertices:,} vertices, "
          f"{graph.n_edges:,} edges")
    print(f"snapshot build       : {build_seconds * 1e3:.2f} ms "
          f"({snapshot.memory_bytes() / 2**20:.1f} MiB of indexes, "
          f"epoch {snapshot.epoch})")
    print(f"batch                : {len(batch)} queries x {args.repeat} "
          f"rounds, {server.threads} threads, cache "
          f"{server.cache_size} entries")
    for round_no in range(1, args.repeat + 1):
        t0 = time.perf_counter()
        server.run_batch(batch)
        wall = time.perf_counter() - t0
        label = "cold" if round_no == 1 else "warm"
        print(f"round {round_no} ({label})       : {wall * 1e3:10.2f} ms  "
              f"{len(batch) / wall:12,.0f} q/s")
    print(server.stats().summary())
    return 0


def _build_cli_attacks(names: str, duration: float, start: float):
    """Instantiate the requested injectors on a schedule inside the run."""
    from repro.trace import attacks
    from repro.trace.hosts import ipv4

    builders = {
        "syn_flood": lambda t: attacks.syn_flood(
            attacker_ip=ipv4(203, 0, 113, 5), victim_ip=ipv4(10, 2, 0, 2),
            start_time=t, duration=min(4.0, duration / 4),
        ),
        "host_scan": lambda t: attacks.host_scan(
            attacker_ip=ipv4(203, 0, 113, 6), victim_ip=ipv4(10, 2, 0, 3),
            start_time=t, duration=min(6.0, duration / 4),
        ),
        "network_scan": lambda t: attacks.network_scan(
            attacker_ip=ipv4(203, 0, 113, 7), subnet_base=ipv4(10, 2, 0, 0),
            start_time=t, duration=min(8.0, duration / 4),
        ),
        "udp_flood": lambda t: attacks.udp_flood(
            attacker_ip=ipv4(203, 0, 113, 8), victim_ip=ipv4(10, 2, 0, 4),
            start_time=t, duration=min(4.0, duration / 4),
        ),
        "icmp_flood": lambda t: attacks.icmp_flood(
            attacker_ip=ipv4(203, 0, 113, 9), victim_ip=ipv4(10, 2, 0, 5),
            start_time=t, duration=min(4.0, duration / 4),
        ),
        "ddos_syn_flood": lambda t: attacks.ddos_syn_flood(
            attacker_ips=tuple(ipv4(198, 51, 100, i) for i in range(1, 9)),
            victim_ip=ipv4(10, 2, 0, 6),
            start_time=t, duration=min(4.0, duration / 4),
        ),
    }
    wanted = [n.strip() for n in names.split(",") if n.strip()]
    if wanted == ["none"]:
        return []
    unknown = set(wanted) - set(builders)
    if unknown:
        raise ValueError(f"unknown attacks: {sorted(unknown)}")
    # Space the onsets evenly over the middle of the session so each
    # attack has clean traffic before it and room to finish.
    out = []
    for i, name in enumerate(wanted):
        onset = start + duration * (i + 1) / (len(wanted) + 1)
        out.append(builders[name](onset))
    return out


def _cmd_stream(args) -> int:
    from repro.core.pipeline import packets_from
    from repro.detect import DetectionThresholds, OnlineDetector
    from repro.netflow import FlowTable, assemble_table
    from repro.serve import QueryServer
    from repro.stream import (
        GraphAccumulator,
        ReplaySource,
        StreamPipeline,
        TraceSource,
    )
    from repro.trace.synthesizer import TraceSynthesizer

    detect_window = 5.0
    if args.replay is not None:
        source = ReplaySource(args.replay, batch_packets=args.batch_packets)
        # Calibrate on the capture itself (same default as `detect`).
        if args.replay.suffix.lower() == ".npz":
            table = FlowTable.load_npz(args.replay)
        else:
            table = assemble_table(
                packets_from(args.replay), idle_timeout=args.idle_timeout
            )
    else:
        start_time = 1_000_000.0
        try:
            gts = _build_cli_attacks(
                args.attacks, args.duration, start_time
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        source = TraceSource(
            synthesizer=TraceSynthesizer(
                session_rate=args.session_rate, seed=args.seed
            ),
            duration=args.duration,
            attacks=tuple(gts),
            batch_packets=args.batch_packets,
            start_time=start_time,
        )
        # Calibrate thresholds on the clean background (same seed, no
        # attacks) so the injected attacks stand out.
        clean = TraceSynthesizer(
            session_rate=args.session_rate, seed=args.seed
        ).generate(args.duration, start_time=start_time)
        table = assemble_table(
            packets_from(clean), idle_timeout=args.idle_timeout
        )
    thresholds = DetectionThresholds.fit_normal(
        {k: table[k] for k in FlowTable.COLUMN_NAMES},
        window_seconds=detect_window,
    )
    detector = OnlineDetector(thresholds, window_seconds=detect_window)
    server = QueryServer(GraphAccumulator().graph(), threads=1)

    pipeline = StreamPipeline(
        source,
        detector=detector,
        window_seconds=args.window,
        lateness=args.lateness,
        queue_capacity=args.queue_capacity,
        idle_timeout=args.idle_timeout,
        server=server,
        sink_delay_seconds=args.sink_delay,
    )
    _print_rows([
        *_setting_rows(_layer("stream"), _flag_values(args)),
        ("batch packets", str(args.batch_packets),
         "flag" if args.batch_packets != 256 else "default"),
        ("source",
         str(args.replay) if args.replay is not None
         else f"synthetic {args.duration:g}s @ {args.session_rate:g} "
              f"sessions/s, seed {args.seed}",
         "flag" if args.replay is not None else "default"),
    ])

    print("\nstreaming ...")
    result = pipeline.run()
    print(result.stats.summary())
    if result.graph is not None:
        print(
            f"live graph            : {result.graph.n_vertices:,} vertices, "
            f"{result.graph.n_edges:,} edges "
            f"(served epoch {server.epoch})"
        )

    print("\nalarms (stream time):")
    for alert in result.detections:
        det = alert.detection
        ip = det.ip
        dotted = ".".join(str((ip >> s) & 0xFF) for s in (24, 16, 8, 0))
        print(f"  t={alert.time:.1f}s  {det.kind:<16} ({det.direction}) "
              f"{dotted}")
    if not result.detections:
        print("  (none)")
    if result.latencies:
        print("\ntime-to-detection:")
        for lat in result.latencies:
            if lat.detected:
                print(f"  {lat.kind:<16} detected as {lat.detected_kind} "
                      f"{lat.seconds_to_detection:.1f}s after onset")
            else:
                print(f"  {lat.kind:<16} MISSED")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "engine-info": _cmd_engine_info,
    "stream": _cmd_stream,
    "detect": _cmd_detect,
    "veracity": _cmd_veracity,
    "query": _cmd_query,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(suppress=True)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
