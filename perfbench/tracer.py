"""Spans and counters taken around the program's public functions.

The benchmark measures every layer from outside: :func:`tap_layers`
replaces a layer's public functions (class attributes and module
functions) with wrappers that record a span per call, and puts the
originals back when the ``with`` block ends.  Nothing in ``src/`` knows
it is being traced.

A span is ``(sid, name, start, end, parent, key, light)``: ``parent`` is
the span that was open when the call began, ``key`` the transaction id
or request id the call belongs to (inherited from the parent when the
call does not name one), and ``light`` the time spent in *light* calls
directly under it.  Very frequent calls are not spans: ``cost_of`` and
``cycle_arcs`` are only counted, and ``publish`` is timed into an
aggregate (``light``) without a span record.

Spans stay in memory; :func:`write_spans` writes them when the run ends.
:func:`self_times` derives each span's self time — its duration minus
the time its child spans cover and minus its light time.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    key: Any
    light: float


class Tracer:
    """Collects spans, call counts and light timings in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.light_s: Counter[str] = Counter()
        self._tallies: dict[str, list[int]] = {}
        # Open frames: [sid, start, key, light]
        self._stack: list[list[Any]] = []
        self._next = 0
        self._light_depth = 0

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        key_of: Callable[[tuple], Any] | None = None,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap *fn* so that each call records one span named *name*."""
        stack = self._stack
        spans = self.spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if key_of is not None:
                key = key_of(args)
            else:
                key = stack[-1][2] if stack else None
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0, key, 0.0]
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    Span(sid, name, frame[1], end, parent, key, frame[3])
                )
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap *fn* so that calls are counted and timed in aggregate."""
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._light_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._light_depth -= 1
                self.counts[name] += 1
                if self._light_depth == 0:
                    self.light_s[name] += elapsed
                    if stack:
                        stack[-1][3] += elapsed

        return wrapper

    def counted(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """Wrap *fn* (positional arguments only) so that calls are only
        counted — as cheaply as a Python wrapper can: ``cost_of`` runs
        millions of times inside the victim cut."""
        cell = self._tallies.setdefault(name, [0])

        def wrapper(*args: Any) -> Any:
            cell[0] += 1
            return fn(*args)

        return wrapper

    def calls(self) -> Counter[str]:
        """Calls per name: span calls plus counted and timed calls."""
        total = Counter(span.name for span in self.spans)
        total.update(self.counts)
        total.update({name: cell[0] for name, cell in self._tallies.items()})
        return total

    def self_by_name(self) -> dict[str, float]:
        """Summed self time per span name, plus the light aggregates."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name] += own
        for name, seconds in self.light_s.items():
            totals[name] += seconds
        return dict(totals)

    def total_by_name(self, name: str) -> float:
        """Summed wall duration of every span called *name*."""
        return sum(s.end - s.start for s in self.spans if s.name == name)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span, in the order given.

    A span's self time is its duration minus the part of its interval
    its child spans cover (overlapping children count once) and minus
    the light time recorded directly under it.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(max(0.0, span.end - span.start - covered - span.light))
    return result


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans as JSON lines (one array per span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(list(span), default=str) + "\n")


# ---------------------------------------------------------------------------
# The layer taps
# ---------------------------------------------------------------------------


def _arg(index: int) -> Callable[[tuple], Any]:
    return lambda args: args[index] if len(args) > index else None


def _txn_of(args: tuple) -> Any:
    return getattr(args[1], "txn_id", None) if len(args) > 1 else None


def _rid_of(args: tuple) -> Any:
    request = args[1] if len(args) > 1 else None
    return request.get("rid") if isinstance(request, dict) else None


def _on_check(tracer: Tracer, deadlock: Any) -> None:
    if deadlock is not None:
        tracer.counts["detection.deadlocks"] += 1
        tracer.counts["detection.cycles_enumerated"] += len(deadlock.cycles)


def _on_select(tracer: Tracer, actions: Any) -> None:
    tracer.counts["victim.victims"] += len(actions)


def _subclasses_defining(base: type, attr: str) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


@contextmanager
def tap_layers(tracer: Tracer, service: bool = False) -> Iterator[Tracer]:
    """Wrap each layer's public functions for the duration of the block.

    With *service*, the wire codec, ``ServiceCore.handle`` and the WAL's
    append and fsync are wrapped too.
    """
    from repro.core.detection import DeadlockDetector
    from repro.core.metrics import Metrics
    from repro.core.rollback import RollbackStrategy
    from repro.core.scheduler import Scheduler
    from repro.core.victim import VictimContext, VictimPolicy
    from repro.graphs import algorithms
    from repro.graphs.concurrency import ConcurrencyGraph
    from repro.locking.manager import LockManager
    from repro.observability.events import EventBus
    from repro.simulation.engine import SimulationEngine

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(wrap(original.fget)))
        else:
            setattr(owner, attr, wrap(original))

    def span(name: str, **options: Any) -> Callable[[Any], Any]:
        return lambda fn: tracer.span(name, fn, **options)

    try:
        patch(SimulationEngine, "run", span("simulation.engine"))
        patch(Scheduler, "runnable", span("simulation.runnable_scan"))
        patch(Scheduler, "all_done", span("simulation.runnable_scan"))
        patch(Scheduler, "step", span("scheduler.step", key_of=_arg(1)))
        for method in (
            "lock", "unlock", "finish", "release_for_rollback", "cancel_wait"
        ):
            patch(
                LockManager, method,
                span(f"locking.{method}", key_of=_arg(1)),
            )
        patch(
            DeadlockDetector, "check",
            span("detection.check", key_of=_arg(1), on_result=_on_check),
        )
        patch(DeadlockDetector, "find_any_cycle", span("detection.sweep"))
        for cls in _subclasses_defining(VictimPolicy, "select"):
            patch(cls, "select", span("victim.select", on_result=_on_select))
        for function in ("min_cost_vertex_cut", "greedy_vertex_cut"):
            patch(algorithms, function, span("victim.cut"))
        patch(
            VictimContext, "cost_of",
            lambda fn: tracer.counted("victim.cost_of", fn),
        )
        for cls in _subclasses_defining(RollbackStrategy, "rollback"):
            patch(cls, "rollback", span("rollback", key_of=_txn_of))
        patch(Metrics, "record_deadlock_arcs", span("metrics.deadlock_arcs"))
        patch(
            ConcurrencyGraph, "cycle_arcs",
            lambda fn: tracer.counted("metrics.cycle_arcs", fn),
        )
        patch(
            EventBus, "publish",
            lambda fn: tracer.timed("observability.publish", fn),
        )
        if service:
            from repro.service import journal, protocol
            from repro.service.core import ServiceCore

            patch(protocol, "decode", span("service.decode"))
            patch(protocol, "encode", span("service.encode"))
            patch(ServiceCore, "handle", span("service.handle", key_of=_rid_of))
            patch(
                journal.DurableWriteAheadLog, "_append", span("wal.append")
            )
            patch(os, "fsync", span("wal.fsync"))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
