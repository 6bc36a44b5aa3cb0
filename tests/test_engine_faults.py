"""Deterministic fault injection + lineage-based recovery.

The contract under test — the engine's Spark property: under any seeded
fault plan (raised exceptions, killed worker processes) with
retries enabled, every backend produces the bit-identical dataset and
the identical simulated-cluster accounting as the fault-free run.
Recovery is wall-clock-only; the Fig. 8-12 series never see it.

Layers covered here:

* ``FaultPlan`` itself: purity/determinism of the decision function, the
  injection horizon, the JSON wire form and the env/CLI knobs;
* ``run_with_recovery``: retry rounds, budget exhaustion re-raising the
  original error, recompute accounting;
* real worker death on the ``pool`` backend (the worker actually
  ``os._exit``\\ s and the driver observes it as :class:`WorkerDied`);
* end-to-end equivalence for RDD pipelines and full PGPBA / PGSK
  generation across every backend;
* a Hypothesis chaos property over random (pipeline, fault plan) pairs —
  ``CHAOS_EXAMPLES`` scales the example count (CI runs 200).
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config
from repro.cli import build_parser
from repro.core import PGPBA, PGSK
from repro.engine import (
    ClusterContext,
    FaultPlan,
    InjectedFault,
    PoolExecutor,
    RecoveryStats,
    SimulatedWorkerDeath,
    WorkerDied,
    available_backends,
    make_executor,
    run_with_recovery,
)
from repro.engine.executor import (
    Executor,
    _reap_leaked_children,
    default_workers,
)
from repro.engine.faults import KILL_EXIT_CODE

BACKENDS = available_backends()

ZERO_PLAN = FaultPlan()

# A plan that injects both fault kinds at rates high enough to hit
# every multi-batch workload below, while staying convergent: the
# injection horizon (2) is within the default retry budget (3).
CHAOS_PLAN = FaultPlan(
    seed=13,
    p_exception=0.25,
    p_kill=0.15,
    max_failures_per_task=2,
)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def stage_structure(ctx):
    """Everything about the simulated stages except the measured times."""
    return [
        (r.stage, r.partition, r.node, r.bytes_out)
        for r in ctx.metrics.tasks
    ]


def _ctx(backend="serial", plan=ZERO_PLAN, **kw):
    kw.setdefault("n_nodes", 2)
    kw.setdefault("executor_cores", 2)
    kw.setdefault("local_workers", 3)
    kw.setdefault("retry_backoff_seconds", 0.0)
    return ClusterContext(executor=backend, fault_plan=plan, **kw)


# ----------------------------------------------------------------------
# FaultPlan unit behaviour
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_action_is_pure(self):
        plan = FaultPlan(seed=5, p_exception=0.3, p_kill=0.3)
        coords = [(b, i, a) for b in range(4) for i in range(6) for a in range(3)]
        first = [plan.action(*c) for c in coords]
        second = [plan.action(*c) for c in coords]
        assert first == second
        assert any(v is not None for v in first)

    def test_zero_plan_never_injects(self):
        assert ZERO_PLAN.is_zero
        assert ZERO_PLAN.action(0, 0, 0) is None
        task = lambda: 42  # noqa: E731
        assert ZERO_PLAN.wrap(
            task, batch=0, index=0, attempt=0, driver_pid=os.getpid()
        ) is task

    def test_injection_horizon(self):
        """Attempts at or past max_failures_per_task are always clean —
        the convergence guarantee for retries >= the horizon."""
        plan = FaultPlan(seed=0, p_exception=1.0, max_failures_per_task=2)
        assert plan.action(0, 0, 0) == "exception"
        assert plan.action(0, 0, 1) == "exception"
        assert plan.action(0, 0, 2) is None
        assert plan.action(0, 0, 99) is None

    def test_wrap_raises_exception(self):
        plan = FaultPlan(seed=0, p_exception=1.0)
        wrapped = plan.wrap(
            lambda: 1, batch=3, index=2, attempt=0, driver_pid=os.getpid()
        )
        with pytest.raises(InjectedFault, match="batch=3, task=2"):
            wrapped()

    def test_wrap_kill_in_driver_degrades_to_exception(self):
        plan = FaultPlan(seed=0, p_kill=1.0)
        wrapped = plan.wrap(
            lambda: 1, batch=0, index=0, attempt=0, driver_pid=os.getpid()
        )
        with pytest.raises(SimulatedWorkerDeath):
            wrapped()

    def test_ci_plan_verdicts_are_pinned(self):
        """The verdicts of the CI pool job's plan over batches 0-7 x
        tasks 0-31 x attempts 0-1, digested when plans still had a third,
        delay-only fault kind: removing it moved no exception or kill
        verdict (same ``u`` draw per attempt, same thresholds)."""
        plan = FaultPlan(
            seed=101, p_exception=0.05, p_kill=0.05, max_failures_per_task=2
        )
        verdicts = [
            str(plan.action(batch, index, attempt))
            for batch in range(8)
            for index in range(32)
            for attempt in range(2)
        ]
        assert hashlib.sha256(",".join(verdicts).encode()).hexdigest() == (
            "835c629e82e255a5cecd86ba584a9f7842a310886ff4d610b7633a6afb250dd1"
        )
        assert (verdicts.count("exception"), verdicts.count("kill")) == (
            31, 28
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"p_exception": -0.1},
            {"p_kill": 1.5},
            {"p_exception": 0.6, "p_kill": 0.6},
            {"max_failures_per_task": 1.5},
            {"max_failures_per_task": -2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, p_exception=0.125, p_kill=0.0625)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="p_meteor"):
            FaultPlan.from_dict({"seed": 1, "p_meteor": 0.5})

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("not json at all")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.resolve() is None
        monkeypatch.setenv("REPRO_FAULTS", "  ")
        assert FaultPlan.resolve() is None
        monkeypatch.setenv("REPRO_FAULTS", '{"seed": 4, "p_kill": 0.2}')
        plan = FaultPlan.resolve()
        assert plan == FaultPlan(seed=4, p_kill=0.2)
        monkeypatch.setenv("REPRO_FAULTS", "{broken")
        with pytest.raises(ValueError, match="REPRO_FAULTS"):
            FaultPlan.resolve()

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", '{"seed": 1}')
        explicit = FaultPlan(seed=2)
        assert FaultPlan.resolve(explicit) is explicit
        assert FaultPlan.resolve({"seed": 3}) == FaultPlan(seed=3)
        assert FaultPlan.resolve('{"seed": 5}') == FaultPlan(seed=5)
        assert FaultPlan.resolve(None) == FaultPlan(seed=1)
        monkeypatch.delenv("REPRO_FAULTS")
        assert FaultPlan.resolve(None) is None
        with pytest.raises(TypeError):
            FaultPlan.resolve(42)


class TestKnobResolution:
    # Through the context; the per-row precedence table is
    # tests/test_config.py.
    def test_max_task_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_TASK_RETRIES", raising=False)
        assert _ctx().max_task_retries == 3
        assert _ctx(max_task_retries=0).max_task_retries == 0
        monkeypatch.setenv("REPRO_MAX_TASK_RETRIES", "7")
        assert _ctx().max_task_retries == 7
        assert _ctx(max_task_retries=2).max_task_retries == 2
        monkeypatch.setenv("REPRO_MAX_TASK_RETRIES", "many")
        with pytest.raises(ValueError, match="'many'"):
            _ctx()
        with pytest.raises(ValueError, match="REPRO_MAX_TASK_RETRIES"):
            _ctx(max_task_retries=-1)

    def test_context_env_wiring(self, monkeypatch, open_context):
        monkeypatch.setenv("REPRO_FAULTS", '{"seed": 6, "p_exception": 0.1}')
        monkeypatch.setenv("REPRO_MAX_TASK_RETRIES", "5")
        ctx = open_context(n_nodes=1)
        assert ctx.fault_plan == FaultPlan(seed=6, p_exception=0.1)
        assert ctx.max_task_retries == 5
        explicit = open_context(
            n_nodes=1, fault_plan=ZERO_PLAN, max_task_retries=1,
        )
        assert explicit.fault_plan == ZERO_PLAN
        assert explicit.max_task_retries == 1
        with pytest.raises(ValueError):
            ClusterContext(n_nodes=1, retry_backoff_seconds=-1.0)


# ----------------------------------------------------------------------
# run_with_recovery unit behaviour
# ----------------------------------------------------------------------
class TestRunWithRecovery:
    def test_clean_batch_untouched(self):
        ex = make_executor("serial")
        stats = RecoveryStats()
        out = run_with_recovery(
            ex, [lambda i=i: i * 2 for i in range(5)], stats=stats
        )
        assert out == [0, 2, 4, 6, 8]
        assert stats == RecoveryStats()
        assert run_with_recovery(ex, []) == []

    def test_injected_failures_recovered_and_counted(self):
        plan = FaultPlan(seed=0, p_exception=1.0, max_failures_per_task=2)
        ex = make_executor("serial")
        stats = RecoveryStats()
        out = run_with_recovery(
            ex,
            [lambda: np.arange(8), lambda: np.arange(4)],
            fault_plan=plan,
            backoff_seconds=0.0,
            stats=stats,
        )
        assert np.array_equal(out[0], np.arange(8))
        assert np.array_equal(out[1], np.arange(4))
        # Both tasks fail on attempts 0 and 1, succeed on attempt 2.
        assert stats.tasks_failed == 4
        assert stats.tasks_retried == 4
        assert stats.recompute_bytes == 12 * np.arange(1).itemsize

    def test_budget_exhaustion_reraises_original(self):
        plan = FaultPlan(seed=0, p_exception=1.0, max_failures_per_task=9)
        ex = make_executor("serial")
        calls = []
        with pytest.raises(InjectedFault):
            run_with_recovery(
                ex,
                [lambda: calls.append(1)],
                fault_plan=plan,
                max_task_retries=1,
                backoff_seconds=0.0,
            )
        assert calls == []  # never got past the injection

    def test_real_errors_retain_their_type(self):
        """A genuine task bug surfaces as itself after the retry budget —
        existing pytest.raises(...) expectations keep working."""
        ex = make_executor("serial")
        attempts = []

        def bad():
            attempts.append(1)
            raise ValueError("columns must be aligned")

        with pytest.raises(ValueError, match="aligned"):
            run_with_recovery(
                ex, [bad], max_task_retries=2, backoff_seconds=0.0
            )
        assert len(attempts) == 3  # initial + 2 retries

    def test_zero_retries_fail_fast(self):
        ex = make_executor("serial")
        with pytest.raises(ZeroDivisionError):
            run_with_recovery(
                ex, [lambda: 1 / 0], max_task_retries=0,
                backoff_seconds=0.0,
            )

    def test_only_failed_partitions_recompute(self):
        """Lineage granularity: surviving tasks are not re-run."""
        plan = FaultPlan(seed=0, p_exception=1.0, max_failures_per_task=1)
        ex = make_executor("serial")
        calls = [0, 0]

        def make(i):
            def task():
                calls[i] += 1
                return i
            return task

        # Sabotage only index 1 by shifting its attempt stream: use a
        # custom wrapper-free check instead — index both through the plan
        # and count executions.  With p_exception=1, attempt 0 fails for
        # both, attempt 1 is past the horizon and succeeds; each task
        # body must run exactly once (the failed attempt never reaches
        # the body).
        out = run_with_recovery(
            ex, [make(0), make(1)], fault_plan=plan, backoff_seconds=0.0
        )
        assert out == [0, 1]
        assert calls == [1, 1]


# ----------------------------------------------------------------------
# Real worker death (pool backend)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
)
class TestWorkerDeath:
    def test_child_really_dies_and_is_observed(self):
        """The injected kill takes down the actual worker process; the
        driver reports WorkerDied with the kill exit code for that one
        task while its sibling completes."""
        plan = FaultPlan(seed=0, p_kill=1.0, max_failures_per_task=1)
        with PoolExecutor(2) as ex:
            wrapped = plan.wrap(
                lambda: 1, batch=0, index=0, attempt=0,
                driver_pid=os.getpid(),
            )
            outcomes = ex.run_outcomes([wrapped, lambda: np.arange(3)])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, WorkerDied)
        assert str(KILL_EXIT_CODE) in str(outcomes[0].error)
        assert np.array_equal(outcomes[1].value, np.arange(3))

    def test_unpicklable_child_error_degrades_to_text(self):
        class Weird(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        def bad():
            raise Weird("worker-side detail")

        with PoolExecutor(2) as ex:
            outcomes = ex.run_outcomes([bad, lambda: 1])
        assert not outcomes[0].ok
        assert "Weird" in str(outcomes[0].error)
        assert "worker-side detail" in str(outcomes[0].error)


# ----------------------------------------------------------------------
# Executor lifecycle (close idempotence, context manager, child reaping)
# ----------------------------------------------------------------------
class TestExecutorLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_is_idempotent(self, backend):
        ex = make_executor(backend, 2)
        ex.run([lambda: 1, lambda: 2])
        ex.close()
        ex.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_manager(self, backend):
        with make_executor(backend, 2) as ex:
            assert ex.run([lambda: 5])[0] == 5
        if backend == "threads":
            assert ex._pool is None

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
    )
    def test_close_reaps_live_children(self):
        """close() stops idle workers and terminates one stuck mid-task."""
        ex = PoolExecutor(2)
        ex.run([lambda: 1, lambda: 2])
        busy, idle = (worker.child.proc for worker in ex._channels)
        assert ex._channels[0].send([(0, lambda: time.sleep(60))])
        assert busy.is_alive() and idle.is_alive()
        ex.close()
        assert not busy.is_alive() and not idle.is_alive()

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
    )
    def test_atexit_reaper_kills_orphans(self):
        ex = PoolExecutor(2)
        ex.run([lambda: 1, lambda: 2])
        procs = [worker.child.proc for worker in ex._channels]
        assert all(proc.is_alive() for proc in procs)
        _reap_leaked_children()
        assert not any(proc.is_alive() for proc in procs)

    def test_resolve_workers_reports_offender(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "lots")
        with pytest.raises(ValueError, match="'lots'"):
            make_executor("threads")
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "0")
        with pytest.raises(ValueError, match="'0'"):
            make_executor("threads")
        monkeypatch.setenv("REPRO_LOCAL_WORKERS", "   ")
        assert make_executor("threads").workers == default_workers()
        monkeypatch.delenv("REPRO_LOCAL_WORKERS")
        assert make_executor("threads", 4).workers == 4
        assert make_executor("serial").workers == default_workers()

    def test_subclass_overriding_run_gets_outcomes_for_free(self):
        class Doubling(Executor):
            name = "doubling"

            def run(self, tasks):
                return [task() for task in tasks]

        ex = Doubling(1)
        outcomes = ex.run_outcomes([lambda: 3, lambda: 1 / 0])
        assert outcomes[0].ok and outcomes[0].value == 3
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ZeroDivisionError)


# ----------------------------------------------------------------------
# End-to-end equivalence: faulted run == fault-free run, bit for bit
# ----------------------------------------------------------------------
def _pipeline_run(backend, plan, **ctx_kw):
    ctx = _ctx(backend, plan, n_nodes=3, **ctx_kw)
    rdd = ctx.parallelize(
        [np.arange(4000) % 701, np.arange(4000) % 499], n_partitions=6
    )
    out = (
        rdd.sample(0.5, seed=3)
        .map_partitions(lambda cols, p: (cols[0] * 2, cols[1] + p))
        .distinct(key_columns=(0, 1))
        .repartition(3)
        .collect()
    )
    ctx.close()
    return out, ctx


class TestChaosEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pipeline_bit_identical_under_faults(self, backend):
        ref, ref_ctx = _pipeline_run(backend, ZERO_PLAN)
        got, got_ctx = _pipeline_run(backend, CHAOS_PLAN)
        assert digest(got) == digest(ref)
        assert stage_structure(got_ctx) == stage_structure(ref_ctx)
        assert np.array_equal(
            got_ctx.metrics.node_peak_bytes, ref_ctx.metrics.node_peak_bytes
        )
        # The plan really fired, and the clean run really didn't.
        assert got_ctx.metrics.tasks_failed > 0
        assert got_ctx.metrics.tasks_retried > 0
        assert ref_ctx.metrics.tasks_failed == 0
        assert ref_ctx.metrics.tasks_retried == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pgpba_bit_identical_under_faults(
        self, backend, seed_graph, seed_analysis
    ):
        def run(plan):
            with _ctx(backend, plan) as ctx:
                res = PGPBA(fraction=0.5, seed=5).generate(
                    seed_graph, seed_analysis,
                    4 * seed_graph.n_edges, context=ctx,
                )
            return res, ctx

        ref, ref_ctx = run(ZERO_PLAN)
        got, got_ctx = run(CHAOS_PLAN)
        assert np.array_equal(got.graph.src, ref.graph.src)
        assert np.array_equal(got.graph.dst, ref.graph.dst)
        for name, col in ref.graph.edge_properties.items():
            assert np.array_equal(got.graph.edge_properties[name], col)
        assert stage_structure(got_ctx) == stage_structure(ref_ctx)
        assert got_ctx.metrics.tasks_failed > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pgsk_bit_identical_under_faults(
        self, backend, seed_graph, seed_analysis
    ):
        gen = PGSK(seed=5, kronfit_iterations=4, kronfit_swaps=10)
        initiator = gen.fit_initiator(seed_graph)

        def run(plan):
            with _ctx(backend, plan) as ctx:
                res = gen.generate(
                    seed_graph, seed_analysis, 2 * seed_graph.n_edges,
                    context=ctx, initiator=initiator,
                )
            return res, ctx

        ref, ref_ctx = run(ZERO_PLAN)
        got, got_ctx = run(CHAOS_PLAN)
        assert np.array_equal(got.graph.src, ref.graph.src)
        assert np.array_equal(got.graph.dst, ref.graph.dst)
        for name, col in ref.graph.edge_properties.items():
            assert np.array_equal(got.graph.edge_properties[name], col)
        assert stage_structure(got_ctx) == stage_structure(ref_ctx)
        assert got_ctx.metrics.tasks_failed > 0


class TestZeroFaultByteIdentity:
    def test_zero_plan_equals_no_plan(self, monkeypatch):
        """A zero fault plan is observationally absent: same datasets,
        same simulated series, zero recovery counters — the guard that
        the injection layer costs nothing when disarmed."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        explicit, ctx_explicit = _pipeline_run("serial", ZERO_PLAN)
        absent, ctx_absent = _pipeline_run("serial", None)
        assert ctx_absent.fault_plan is None
        assert digest(explicit) == digest(absent)
        assert stage_structure(ctx_explicit) == stage_structure(ctx_absent)
        for ctx in (ctx_explicit, ctx_absent):
            assert ctx.metrics.tasks_failed == 0
            assert ctx.metrics.tasks_retried == 0
            assert ctx.metrics.recovery_recompute_bytes == 0


class TestFaultMetricsThreeNodeCluster:
    """Satellite: the Fig. 8-12 inputs from a 3-node simulated cluster
    are identical with and without a seeded fault plan — recovery moves
    wall clock and recovery counters, never the simulated series."""

    def test_stage_records_identical(self, seed_graph, seed_analysis):
        def run(plan):
            with _ctx("serial", plan, n_nodes=3) as ctx:
                PGPBA(fraction=0.5, seed=5).generate(
                    seed_graph, seed_analysis,
                    3 * seed_graph.n_edges, context=ctx,
                )
            return ctx

        clean = run(ZERO_PLAN)
        faulted = run(CHAOS_PLAN)
        assert stage_structure(faulted) == stage_structure(clean)
        assert np.array_equal(
            faulted.metrics.node_peak_bytes, clean.metrics.node_peak_bytes
        )
        assert faulted.metrics.n_tasks == clean.metrics.n_tasks
        assert faulted.metrics.tasks_failed > 0
        assert faulted.metrics.recovery_recompute_bytes > 0
        assert clean.metrics.tasks_failed == 0
        assert clean.metrics.recovery_recompute_bytes == 0


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCliFlags:
    def test_generate_accepts_fault_flags(self):
        args = build_parser().parse_args(
            [
                "generate", "seed.pcap", "--edges", "100",
                "--faults", '{"seed": 1, "p_exception": 0.1}',
                "--max-task-retries", "5",
            ]
        )
        assert FaultPlan.resolve(args.faults) == FaultPlan(
            seed=1, p_exception=0.1
        )
        assert config.resolve("max_task_retries", args.max_task_retries) == 5

    def test_generate_fault_flags_default_to_env(self):
        args = build_parser().parse_args(
            ["generate", "seed.pcap", "--edges", "100"]
        )
        # None everywhere: ClusterContext falls through to the env vars.
        assert args.faults is None
        assert args.max_task_retries is None


# ----------------------------------------------------------------------
# Hypothesis chaos property: random pipeline x random fault plan
# ----------------------------------------------------------------------
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "25"))

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**16),
    p_exception=st.floats(0.0, 0.35),
    p_kill=st.floats(0.0, 0.3),
    max_failures_per_task=st.integers(0, 3),
)

pipeline_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("sample"),
            st.floats(0.2, 0.9),
            st.integers(0, 100),
        ),
        st.tuples(st.just("map")),
        st.tuples(st.just("distinct")),
        st.tuples(st.just("repartition"), st.integers(1, 5)),
    ),
    min_size=1,
    max_size=4,
)


def _apply_pipeline(ctx, ops):
    rdd = ctx.parallelize(
        [np.arange(1500) % 311, np.arange(1500) % 97], n_partitions=5
    )
    for op in ops:
        if op[0] == "sample":
            rdd = rdd.sample(op[1], seed=op[2])
        elif op[0] == "map":
            rdd = rdd.map_partitions(
                lambda cols, p: (cols[0] * 2 + p, cols[1])
            )
        elif op[0] == "distinct":
            rdd = rdd.distinct(key_columns=(0,))
        elif op[0] == "repartition":
            rdd = rdd.repartition(op[1])
    return rdd.collect()


class TestHypothesisChaos:
    @settings(
        max_examples=CHAOS_EXAMPLES,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        plan=fault_plans,
        ops=pipeline_ops,
        backend=st.sampled_from(BACKENDS),
    )
    def test_random_pipeline_digest_equal_to_fault_free(
        self, plan, ops, backend
    ):
        with _ctx(backend, ZERO_PLAN) as ref_ctx:
            ref = _apply_pipeline(ref_ctx, ops)
        with _ctx(backend, plan) as got_ctx:
            got = _apply_pipeline(got_ctx, ops)
        assert digest(got) == digest(ref)
        assert stage_structure(got_ctx) == stage_structure(ref_ctx)
