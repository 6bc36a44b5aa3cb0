"""Deterministic fault injection for the Map-Reduce engine.

The paper's generators run on Spark, whose defining operational property
is that a lost task is *recomputed from lineage* instead of aborting the
job.  To prove our recovery layer (``repro.engine.executor.
run_with_recovery``) reproduces that property bit-for-bit, this module
provides a seeded, serializable :class:`FaultPlan` that decides — purely
as a function of ``(plan seed, batch, task index, attempt)`` — whether a
given task attempt

* raises an :class:`InjectedFault`, or
* dies like a crashed worker (a ``pool`` worker process really calls
  ``os._exit``; in-driver backends raise
  :class:`SimulatedWorkerDeath` instead, which the recovery layer treats
  identically).

Because the decision is a pure function of the attempt coordinates, a
fault schedule is reproducible across executor backends and across
retries: attempt ``k`` of a task always sees the same verdict, and
attempts at or past ``max_failures_per_task`` are always clean — so any
``max_task_retries >= max_failures_per_task`` provably converges, and
chaos tests can assert the recovered output digest equals the fault-free
run's.

Plans are plain dataclasses with a JSON wire form: pass one to
``ClusterContext(fault_plan=...)`` (a :class:`FaultPlan`, a dict, or a
JSON string), or set the ``REPRO_FAULTS`` environment variable / the
CLI ``--faults`` flag to the JSON form.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro import config

__all__ = [
    "KILL_EXIT_CODE",
    "InjectedFault",
    "SimulatedWorkerDeath",
    "FaultPlan",
]

# Exit code an injected "kill" uses in a real worker child; chosen to be
# recognisable in WorkerDied messages (and distinct from Python's 1).
KILL_EXIT_CODE = 73

# Salt mixed into the fault RNG key so fault decisions are decorrelated
# from the engine's data RNG streams, which key on (seed, partition).
_FAULT_STREAM_SALT = 104_729


class InjectedFault(RuntimeError):
    """A task failure raised on purpose by a :class:`FaultPlan`."""


class SimulatedWorkerDeath(InjectedFault):
    """Worker-death injection on a backend that runs tasks in-driver,
    where actually exiting the process would kill the whole run."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, serializable schedule of task-granular fault injections.

    ``p_exception`` / ``p_kill`` are per-attempt probabilities (their
    sum must stay <= 1); ``max_failures_per_task`` is the injection
    horizon: attempts numbered at or past it are never faulted, which
    bounds consecutive failures per task and makes convergence under
    retries provable.
    """

    seed: int = 0
    p_exception: float = 0.0
    p_kill: float = 0.0
    max_failures_per_task: int = 2

    def __post_init__(self) -> None:
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        for name in ("p_exception", "p_kill"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        total = self.p_exception + self.p_kill
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"fault probabilities must sum to <= 1, got {total!r}"
            )
        if int(self.max_failures_per_task) != self.max_failures_per_task or (
            self.max_failures_per_task < 0
        ):
            raise ValueError(
                "max_failures_per_task must be a non-negative int, got "
                f"{self.max_failures_per_task!r}"
            )

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        """True when the plan can never inject anything."""
        return self.p_exception == 0.0 and self.p_kill == 0.0

    def action(self, batch: int, index: int, attempt: int) -> str | None:
        """The verdict for one task attempt: ``"exception"``, ``"kill"``
        or ``None`` — a pure function of the coordinates, so it is
        identical on every backend and on every replay."""
        if self.is_zero or attempt >= self.max_failures_per_task:
            return None
        u = np.random.default_rng(
            (self.seed, _FAULT_STREAM_SALT, batch, index, attempt)
        ).random()
        if u < self.p_exception:
            return "exception"
        if u < self.p_exception + self.p_kill:
            return "kill"
        return None

    def wrap(
        self,
        task: Callable[[], Any],
        *,
        batch: int,
        index: int,
        attempt: int,
        driver_pid: int,
    ) -> Callable[[], Any]:
        """Wrap one task attempt with this plan's verdict.

        The verdict is evaluated when the wrapped task *runs* — in the
        worker process for the ``pool`` backend — so a
        "kill" can really take that process down (``os._exit``) when the
        task executes outside ``driver_pid``, and degrades to
        :class:`SimulatedWorkerDeath` in-driver.
        """
        if self.is_zero:
            return task

        def _faulted() -> Any:
            action = self.action(batch, index, attempt)
            if action == "exception":
                raise InjectedFault(
                    f"injected task failure (batch={batch}, task={index}, "
                    f"attempt={attempt})"
                )
            if action == "kill":
                if os.getpid() != driver_pid:
                    os._exit(KILL_EXIT_CODE)
                raise SimulatedWorkerDeath(
                    f"injected worker death (batch={batch}, task={index}, "
                    f"attempt={attempt})"
                )
            return task()

        return _faulted

    # ------------------------------------------------------------------
    # wire form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        fields = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(
                f"unknown FaultPlan field(s) {unknown}; "
                f"choose from {sorted(fields)}"
            )
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(config.json_object(text))

    @classmethod
    def resolve(
        cls, value: "FaultPlan | Mapping | str | None" = None
    ) -> "FaultPlan | None":
        """Coerce a plan spec: explicit argument > ``REPRO_FAULTS`` env.

        Accepts an existing plan, a mapping, or a JSON string; ``None``
        falls back to the environment (and stays ``None`` when the
        environment is silent too).
        """
        if isinstance(value, cls):
            return value
        data = config.resolve("faults", value)
        if data is None:
            return None
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            setting = config.SETTINGS["faults"]
            raise ValueError(f"{setting.env} / {setting.flag}: {exc}") from exc
