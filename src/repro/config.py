"""The one configuration surface: every runtime setting, declared once.

Each knob of the engine, the query server and the streaming pipeline is
one :class:`Setting` row of :data:`SETTINGS` — its name, environment
variable, default, parser, CLI flag, constructor keyword and help text.
Everything that needs to know about knobs derives from that table:

* constructors call :func:`resolve` (explicit argument > environment
  variable > default; a blank environment value counts as unset; every
  rejection names the variable and the flag; a ``REPRO_*`` variable
  that names no row is an error, not silently ignored);
* ``repro.cli`` builds its flags with :func:`add_arguments` and
  ``repro engine-info`` prints every row with :func:`source`;
* the README "Runtime flags" table is :func:`flags_table`, printed by
  ``python -c "from repro.config import flags_table; print(flags_table())"``.

This is a leaf module: it imports nothing from ``repro.engine``,
``repro.serve`` or ``repro.stream``, so any of them may import it.  The
closed value set written out here (backends) is pinned to the live
registry by ``tests/test_config.py``.  It is also the only module
that reads ``os.environ`` for configuration.
"""

from __future__ import annotations

import argparse
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "SETTINGS",
    "Parser",
    "Setting",
    "add_arguments",
    "flags_table",
    "resolve",
    "source",
]


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Parser:
    """Turns an argument or environment string into a setting's value,
    raising ``ValueError`` for anything else.  ``what`` completes the
    sentence "<ENV> must be ..."; ``metavar`` names the flag's operand
    in ``--help``; ``values`` is the closed set of a :func:`choice`."""

    fn: Callable[[Any], Any]
    what: str
    metavar: "str | None" = None
    values: "tuple[str, ...] | None" = None

    def __call__(self, value: Any) -> Any:
        return self.fn(value)


def _whole(value) -> int:
    """``int(value)`` for an int, an integral float or integer text; a
    bool or a fractional float is refused rather than truncated."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(value)
    return int(value)


def integer(min: int) -> Parser:
    def parse(value):
        number = _whole(value)
        if number < min:
            raise ValueError(number)
        return number

    return Parser(parse, f"an integer >= {min}", "N")


def _seconds(value, *, allow_zero: bool) -> float:
    number = float(value)
    # float() takes "nan" and "inf"; neither is a duration.
    if not math.isfinite(number) or number < 0 or (
        number == 0 and not allow_zero
    ):
        raise ValueError(number)
    return number


seconds = Parser(
    lambda value: _seconds(value, allow_zero=False),
    "a number of seconds > 0",
    "SECONDS",
)


def _lateness(value):
    if isinstance(value, str) and value.strip().lower() == "auto":
        return None
    return _seconds(value, allow_zero=True)


# ``None`` is "auto": the flow assembler's safe bound, worked out by the
# pipeline from its timeouts.
lateness = Parser(
    _lateness, "a number of seconds >= 0 or 'auto'", "SECONDS|auto"
)


def choice(values: Iterable[str]) -> Parser:
    values = tuple(values)

    def parse(value):
        name = str(value).strip().lower()
        if name not in values:
            raise ValueError(name)
        return name

    return Parser(parse, "one of " + ", ".join(values), values=values)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Setting:
    """One knob.  ``default`` is already in parsed form; ``kwarg`` is
    the keyword of the layer's constructor (see ``_CONSTRUCTORS``) that
    takes the explicit value; ``show`` renders a resolved value for
    ``engine-info`` and the README.  ``evidence`` names what needs more
    than one value of the knob — a ``BENCHMARK.json`` workload or a
    tier-1 test id (``tests/...::...``); a knob with neither is a
    constant (``tests/test_config.py`` resolves every row's)."""

    name: str
    env: str
    default: Any
    parse: Parser
    flag: "str | None"
    kwarg: "str | None"
    help: str
    evidence: str
    layer: str = "engine"
    show: Callable[[Any], str] = str

    @property
    def dest(self) -> str:
        """The argparse attribute the flag is stored under."""
        return self.flag.lstrip("-").replace("-", "_")


# Which constructor a layer's ``kwarg`` belongs to.
_CONSTRUCTORS = {
    "engine": "ClusterContext",
    "serve": "QueryServer",
    "stream": "StreamPipeline",
}


def _cpu_count(value) -> str:
    return "CPU count" if value is None else str(value)


def _unit(unit: str) -> Callable[[Any], str]:
    return lambda value: f"{value:g} {unit}"


SETTINGS: "dict[str, Setting]" = {
    s.name: s
    for s in (
        Setting(
            "executor", "REPRO_EXECUTOR", "serial",
            choice(("serial", "threads", "pool")),
            "--executor", "executor",
            "real execution backend for partition tasks: `pool` reuses "
            "persistent forked workers with shared-memory transport; "
            "results and simulated metrics are byte-identical under any "
            "value, only wall clock and memory use change",
            evidence="generate_pool",
        ),
        Setting(
            "local_workers", "REPRO_LOCAL_WORKERS", None, integer(min=1),
            "--workers", "local_workers",
            "worker count of the `threads` and `pool` backends",
            evidence="generate_pool",
            show=_cpu_count,
        ),
        Setting(
            "query_threads", "REPRO_QUERY_THREADS", None, integer(min=1),
            "--threads", "threads",
            "worker threads for batched query serving",
            evidence="serve_detect",
            layer="serve", show=_cpu_count,
        ),
        Setting(
            "query_cache", "REPRO_QUERY_CACHE", 1024, integer(min=0),
            "--cache-size", "cache_size",
            "LRU result-cache capacity in entries; 0 disables caching",
            evidence="serve_detect",
            layer="serve", show=_unit("entries"),
        ),
        Setting(
            "stream_queue", "REPRO_STREAM_QUEUE", 8, integer(min=1),
            "--queue-capacity", "queue_capacity",
            "bounded-queue capacity in micro-batches between streaming "
            "stages; a full queue blocks the producer (backpressure), so "
            "pipeline memory stays bounded",
            evidence=(
                "tests/test_stream.py::TestPipeline"
                "::test_backpressure_bounds_queue_depth"
            ),
            layer="stream",
        ),
        Setting(
            "stream_window", "REPRO_STREAM_WINDOW", 5.0, seconds,
            "--window", "window_seconds",
            "micro-batch window length in stream seconds; flows are "
            "bucketed by start time into aligned windows",
            evidence="stream_detect",
            layer="stream", show=_unit("s"),
        ),
        Setting(
            "stream_lateness", "REPRO_STREAM_LATENESS", None, lateness,
            "--lateness", "lateness",
            "allowed lateness before a window closes: `auto` is the safe "
            "bound `max(idle_timeout, max_flow_duration)` (streamed "
            "detections byte-identical to batch); smaller values close "
            "windows sooner and route late flows into the next window "
            "(counted in `late_flows`)",
            evidence=(
                "tests/test_stream.py::TestWindowAssembler"
                "::test_late_record_rerouted_and_counted"
            ),
            layer="stream",
            show=lambda v: "auto" if v is None else f"{v:g} s",
        ),
    )
}


# ----------------------------------------------------------------------
# Reading the table
# ----------------------------------------------------------------------
def resolve(name: str, value: Any = None) -> Any:
    """Resolve one setting: explicit ``value`` > environment variable >
    default.  A blank environment value counts as unset; an explicit
    value, blank or not, goes to the row's parser and never falls
    through to the environment, and reading the environment fails on
    any ``REPRO_*`` variable that is not a row of :data:`SETTINGS`."""
    setting = SETTINGS[name]
    if value is None:
        _check_environment()
        value = os.environ.get(setting.env)
        if value is None or not value.strip():
            return setting.default
    try:
        return setting.parse(value)
    except ValueError as exc:
        names = setting.env + (f" / {setting.flag}" if setting.flag else "")
        raise ValueError(
            f"{names} must be {setting.parse.what}, got {value!r}"
        ) from exc


_ENV_NAMES = frozenset(s.env for s in SETTINGS.values())


def _check_environment() -> None:
    """Refuse a ``REPRO_*`` variable that names no setting — a removed
    or misspelt knob would otherwise be silently ignored."""
    unknown = sorted(
        name for name in os.environ
        if name.startswith("REPRO_") and name not in _ENV_NAMES
    )
    if unknown:
        raise ValueError(
            f"unknown environment variable(s) {', '.join(unknown)}; "
            f"the REPRO_* settings are: {', '.join(sorted(_ENV_NAMES))}"
        )


def source(name: str, flag_set: bool) -> str:
    """Where :func:`resolve` takes ``name`` from, for ``engine-info``."""
    setting = SETTINGS[name]
    if flag_set:
        return "flag"
    if os.environ.get(setting.env, "").strip():
        return f"env {setting.env}"
    return "default"


def add_arguments(
    parser: argparse.ArgumentParser, names: "Iterable[str] | None" = None
) -> None:
    """Add the CLI flag of every named setting (default: all) to
    ``parser``.  Flags default to ``None`` — "not given" — and keep the
    text as typed, so the constructor's :func:`resolve` call is the one
    place a value is interpreted; the text is only checked here so a bad
    one is an argparse error."""
    for name in SETTINGS if names is None else names:
        s = SETTINGS[name]
        if not s.flag:
            continue
        help_text = (
            f"{s.help} (default: {s.env} env var, then "
            f"{s.show(s.default)})"
        ).replace("`", "'")
        if s.parse.values is not None:
            parser.add_argument(
                s.flag, choices=s.parse.values, default=None,
                help=help_text,
            )
        else:
            parser.add_argument(
                s.flag, type=_checked_text(s), default=None,
                metavar=s.parse.metavar, help=help_text,
            )


def _checked_text(setting: Setting) -> Callable[[str], str]:
    """An argparse ``type`` that accepts the text ``setting`` parses."""

    def check(text: str) -> str:
        try:
            resolve(setting.name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return text

    return check


def flags_table() -> str:
    """The README "Runtime flags" table, one row per setting."""
    lines = [
        "| Environment variable | CLI flag | Constructor argument "
        "| Default | Meaning | Evidence |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for s in SETTINGS.values():
        flag = f"`{s.flag}`" if s.flag else "—"
        kwarg = f"`{_CONSTRUCTORS[s.layer]}({s.kwarg}=)`" if s.kwarg else "—"
        lines.append(
            f"| `{s.env}` | {flag} | {kwarg} | {s.show(s.default)} "
            f"| {s.help} | `{s.evidence}` |"
        )
    return "\n".join(lines)
