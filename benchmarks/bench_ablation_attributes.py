"""Ablation — conditional vs unconditional Netflow attribute sampling.

The seed-analysis step (Fig. 1) keeps p(IN_BYTES) and p(a | IN_BYTES) for
every other attribute a; decoration realises both by giving each edge the
attributes of one seed flow.  This ablation quantifies what that buys: the
correlation structure between attribute columns of the generated edges.
Unconditional (marginal) sampling draws each attribute from its own seed
row: it reproduces each attribute's distribution but destroys the
couplings — a generated flow can move a gigabyte in one packet.
"""

from __future__ import annotations

import numpy as np

from conftest import save_series
from repro.bench import default_cluster
from repro.core import PGPBA

PAIRS = (("IN_BYTES", "IN_PKTS"), ("OUT_BYTES", "OUT_PKTS"),
         ("IN_BYTES", "DURATION"))


def _corr(graph, a, b) -> float:
    x = np.asarray(graph.edge_properties[a], dtype=np.float64)
    y = np.asarray(graph.edge_properties[b], dtype=np.float64)
    if np.std(x) == 0 or np.std(y) == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def run_ablation(seed_graph, seed_analysis):
    target = 20 * seed_graph.n_edges
    graphs = {}
    for conditional in (True, False):
        res = PGPBA(
            fraction=0.5, seed=20, conditional_properties=conditional
        ).generate(
            seed_graph, seed_analysis, target, context=default_cluster()
        )
        graphs[conditional] = res.graph
    rows = []
    for a, b in PAIRS:
        rows.append(
            [
                f"{a}~{b}",
                _corr(seed_graph, a, b),
                _corr(graphs[True], a, b),
                _corr(graphs[False], a, b),
            ]
        )
    return rows


def test_ablation_conditional_attributes(
    benchmark, seed_graph, seed_analysis
):
    rows = run_ablation(seed_graph, seed_analysis)
    save_series(
        "ablation_attributes",
        "Ablation: attribute correlations — seed vs conditional vs marginal",
        ["pair", "seed_corr", "conditional_corr", "marginal_corr"],
        rows,
    )
    for pair, seed_c, cond_c, marg_c in rows:
        if seed_c > 0.3:
            # Conditional sampling preserves a clearly positive coupling;
            # marginal sampling collapses it toward zero.
            assert cond_c > marg_c + 0.1, pair
            assert abs(marg_c) < 0.2, pair

    def op():
        return PGPBA(
            fraction=1.0, seed=21, conditional_properties=True
        ).generate(
            seed_graph, seed_analysis, 5 * seed_graph.n_edges,
            context=default_cluster(),
        )

    benchmark.pedantic(op, rounds=1, iterations=1)
