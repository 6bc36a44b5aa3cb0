"""Deterministic fault injection for the Map-Reduce engine.

The paper's generators run on Spark, whose defining operational property
is that a lost task is *recomputed from lineage* instead of aborting the
job.  To prove our recovery layer (``repro.engine.executor.
run_with_recovery``) reproduces that property bit-for-bit, this module
provides a seeded, serializable :class:`FaultPlan` that decides — purely
as a function of ``(plan seed, batch, task index, attempt)`` — whether a
given task attempt

* raises an :class:`InjectedFault`,
* dies like a crashed worker (a ``pool`` / ``cluster`` worker process
  really calls ``os._exit``; in-driver backends raise
  :class:`SimulatedWorkerDeath` instead, which the recovery layer treats
  identically), or
* straggles (sleeps ``straggler_seconds`` *outside* the measured task
  region, so the simulated clock never sees the delay and speculative
  re-execution has something to win against).

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
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "FAULTS_ENV_VAR",
    "RETRIES_ENV_VAR",
    "SPECULATION_ENV_VAR",
    "KILL_EXIT_CODE",
    "InjectedFault",
    "SimulatedWorkerDeath",
    "FaultPlan",
    "resolve_max_task_retries",
    "resolve_speculation",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"
RETRIES_ENV_VAR = "REPRO_MAX_TASK_RETRIES"
SPECULATION_ENV_VAR = "REPRO_SPECULATION"

# Exit code an injected "kill" uses in a real worker child; chosen to be
# recognisable in WorkerDied messages (and distinct from Python's 1).
KILL_EXIT_CODE = 73

_OFF_VALUES = frozenset({"off", "0", "false", "no"})
_ON_VALUES = frozenset({"on", "1", "true", "yes"})

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

    ``p_exception`` / ``p_kill`` / ``p_straggler`` are per-attempt
    probabilities (their sum must stay <= 1); ``max_failures_per_task``
    is the injection horizon: attempts numbered at or past it are never
    faulted, which bounds consecutive failures per task and makes
    convergence under retries provable.  Speculative duplicate attempts
    are dispatched at the horizon, so they always run clean.
    """

    seed: int = 0
    p_exception: float = 0.0
    p_kill: float = 0.0
    p_straggler: float = 0.0
    straggler_seconds: float = 0.02
    max_failures_per_task: int = 2

    def __post_init__(self) -> None:
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        for name in ("p_exception", "p_kill", "p_straggler"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        total = self.p_exception + self.p_kill + self.p_straggler
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"fault probabilities must sum to <= 1, got {total!r}"
            )
        if self.straggler_seconds < 0:
            raise ValueError(
                f"straggler_seconds must be >= 0, got {self.straggler_seconds!r}"
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
        return (
            self.p_exception == 0.0
            and self.p_kill == 0.0
            and self.p_straggler == 0.0
        )

    def action(self, batch: int, index: int, attempt: int) -> str | None:
        """The verdict for one task attempt: ``"exception"``, ``"kill"``,
        ``"straggler"`` or ``None`` — a pure function of the coordinates,
        so it is identical on every backend and on every replay."""
        if self.is_zero or attempt >= self.max_failures_per_task:
            return None
        u = np.random.default_rng(
            (self.seed, _FAULT_STREAM_SALT, batch, index, attempt)
        ).random()
        if u < self.p_exception:
            return "exception"
        if u < self.p_exception + self.p_kill:
            return "kill"
        if u < self.p_exception + self.p_kill + self.p_straggler:
            return "straggler"
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
        worker process for the ``pool`` / ``cluster`` backends — so a
        "kill" can really take that process down (``os._exit``) when the
        task executes outside ``driver_pid``, and degrades to
        :class:`SimulatedWorkerDeath` in-driver.  A straggler sleeps
        before the task body, outside its measured segments: the
        simulated cluster clock never sees injected delays.
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
            if action == "straggler":
                time.sleep(self.straggler_seconds)
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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"fault plan must be a JSON object, got {text!r}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"fault plan must be a JSON object, got {text!r}"
            )
        return cls.from_dict(data)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "FaultPlan | None":
        """Parse ``REPRO_FAULTS``; ``None`` when unset or blank."""
        raw = (environ if environ is not None else os.environ).get(
            FAULTS_ENV_VAR
        )
        if raw is None or not raw.strip():
            return None
        try:
            return cls.from_json(raw)
        except ValueError as exc:
            raise ValueError(f"{FAULTS_ENV_VAR}: {exc}") from exc

    @classmethod
    def resolve(
        cls, value: "FaultPlan | Mapping | str | None" = None
    ) -> "FaultPlan | None":
        """Coerce a plan spec: explicit argument > ``REPRO_FAULTS`` env.

        Accepts an existing plan, a mapping, or a JSON string; ``None``
        falls back to the environment (and stays ``None`` when the
        environment is silent too).
        """
        if value is None:
            return cls.from_env()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        if isinstance(value, str):
            return cls.from_json(value)
        raise TypeError(
            f"fault_plan must be a FaultPlan, dict, JSON string or None, "
            f"got {type(value).__name__}"
        )


# ----------------------------------------------------------------------
def resolve_max_task_retries(value: int | None = None, default: int = 3) -> int:
    """Retry budget per task: explicit argument > ``REPRO_MAX_TASK_RETRIES``
    env > ``default`` (3, mirroring Spark's ``task.maxFailures=4``)."""
    if value is None:
        env = os.environ.get(RETRIES_ENV_VAR)
        if env is not None and env.strip():
            try:
                value = int(env)
            except ValueError as exc:
                raise ValueError(
                    f"{RETRIES_ENV_VAR} must be an integer, got {env!r}"
                ) from exc
        else:
            return default
    if value < 0:
        raise ValueError(f"max_task_retries must be >= 0, got {value!r}")
    return int(value)


def resolve_speculation(flag: bool | None = None) -> bool:
    """Speculative-execution switch: explicit argument >
    ``REPRO_SPECULATION`` env > off."""
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(SPECULATION_ENV_VAR)
    if raw is None:
        return False
    value = raw.strip().lower()
    if value in _ON_VALUES:
        return True
    if value in _OFF_VALUES or value == "":
        return False
    raise ValueError(
        f"{SPECULATION_ENV_VAR} must be one of "
        f"{sorted(_ON_VALUES | _OFF_VALUES)}, got {raw!r}"
    )
