"""Per-layer metrics, derived from a traced run.

Each metric is named ``<module>.<what>``, after the part of ``src/repro``
it measures.  Every workload reports every metric; a layer the workload
does not use reads 0 (the simulator never decodes a request, and the
service has no engine loop).
"""

from __future__ import annotations

from typing import Any, Iterable

from tracer import Tracer

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("simulation.steps", "count"),
    ("simulation.steps_per_cpu_s", "1/s"),
    ("simulation.engine_self_s", "s"),
    ("simulation.runnable_scan_s", "s"),
    ("simulation.mean_runnable", "count"),
    ("simulation.mean_blocked", "count"),
    ("simulation.setup_admit_s", "s"),
    ("scheduler.step_calls", "count"),
    ("scheduler.step_self_s", "s"),
    ("locking.lock_calls", "count"),
    ("locking.block_ratio", "ratio"),
    ("locking.self_s", "s"),
    ("detection.check_calls", "count"),
    ("detection.check_self_s", "s"),
    ("detection.deadlock_ratio", "ratio"),
    ("detection.cycles_enumerated", "count"),
    ("detection.residual_sweeps", "count"),
    ("graphs.refreshes", "count"),
    ("graphs.materializations", "count"),
    ("victim.select_calls", "count"),
    ("victim.select_self_s", "s"),
    ("victim.cut_self_s", "s"),
    ("victim.cost_evals", "count"),
    ("victim.victims_per_deadlock", "ratio"),
    ("rollback.calls", "count"),
    ("rollback.self_s", "s"),
    ("rollback.states_lost", "count"),
    ("rollback.overshoot_states", "count"),
    ("rollback.states_lost_per_commit", "ratio"),
    ("metrics.deadlock_arcs_self_s", "s"),
    ("metrics.cycle_arcs_calls", "count"),
    ("observability.publish_calls", "count"),
    ("observability.publish_self_s", "s"),
    ("observability.events_per_commit", "ratio"),
    ("service.decode_self_s", "s"),
    ("service.encode_self_s", "s"),
    ("service.handle_calls", "count"),
    ("service.handle_self_s", "s"),
    ("service.server_ms_per_req", "ms"),
    ("service.wait_ms_per_req", "ms"),
    ("service.requests_per_commit", "ratio"),
    ("service.lost_updates", "count"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.fsync_s", "s"),
    ("wal.bytes_per_commit", "B"),
    ("journal.bytes_per_commit", "B"),
    ("admission.rejects_429", "count"),
    ("admission.retries_per_commit", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.overhead_share", "ratio"),
]

_LOCKING = (
    "locking.lock", "locking.unlock", "locking.finish",
    "locking.release_for_rollback", "locking.cancel_wait",
)


#: Scheduler counters (``repro.core.metrics.Metrics``) the summary keeps.
COUNTERS = ("commits", "deadlocks", "blocks", "states_lost", "overshoot_states")


def summarize(
    tracer: Tracer,
    scheduler_metrics: Iterable[Any],
    graph_counters: Iterable[dict[str, int]],
) -> dict[str, Any]:
    """Reduce a traced run to plain numbers (JSON-serialisable, so the
    traced server can hand them to the benchmark through a file).

    *scheduler_metrics* and *graph_counters* hold one entry per
    scheduler the run drove; they are summed."""
    summary: dict[str, Any] = {
        "self_s": tracer.self_by_name(),
        "calls": dict(tracer.calls()),
        "total_s": {
            name: tracer.total_by_name(name)
            for name in ("service.decode", "service.handle", "service.encode")
        },
        "graph": {},
    }
    for name in COUNTERS:
        summary[name] = 0
    for metrics in scheduler_metrics:
        for name in COUNTERS:
            summary[name] += getattr(metrics, name)
    for counters in graph_counters:
        for name, value in counters.items():
            summary["graph"][name] = summary["graph"].get(name, 0) + value
    return summary


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(summary: dict[str, Any], **extra: float) -> dict[str, float]:
    """Every per-layer metric from a :func:`summarize` result.

    *extra* supplies what the trace cannot see: the ``simulation.*``
    figures of the engine result, the ``service.*``, ``wal.*``,
    ``journal.*``, ``admission.*`` and ``loadgen.*`` figures the load
    generator measured, and ``trace.*``.  Missing ones read 0.
    """
    own = summary["self_s"]
    calls = summary["calls"]
    commits = summary["commits"]
    deadlocks = summary["deadlocks"]
    lock_calls = calls.get("locking.lock", 0)
    checks = calls.get("detection.check", 0)
    selects = calls.get("victim.select", 0)
    handles = calls.get("service.handle", 0)
    server_s = sum(summary["total_s"].values())
    values = {
        "simulation.engine_self_s": own.get("simulation.engine", 0.0),
        "simulation.runnable_scan_s": own.get(
            "simulation.runnable_scan", 0.0
        ),
        "simulation.setup_admit_s": own.get("simulation.setup_admit", 0.0),
        "scheduler.step_calls": calls.get("scheduler.step", 0),
        "scheduler.step_self_s": own.get("scheduler.step", 0.0),
        "locking.lock_calls": lock_calls,
        "locking.block_ratio": _ratio(summary["blocks"], lock_calls),
        "locking.self_s": sum(own.get(name, 0.0) for name in _LOCKING),
        "detection.check_calls": checks,
        "detection.check_self_s": own.get("detection.check", 0.0),
        "detection.deadlock_ratio": _ratio(
            calls.get("detection.deadlocks", 0), checks
        ),
        "detection.cycles_enumerated": calls.get(
            "detection.cycles_enumerated", 0
        ),
        "detection.residual_sweeps": calls.get("detection.sweep", 0),
        "graphs.refreshes": summary["graph"].get("refreshes", 0),
        "graphs.materializations": summary["graph"].get(
            "materializations", 0
        ),
        "victim.select_calls": selects,
        "victim.select_self_s": own.get("victim.select", 0.0),
        "victim.cut_self_s": own.get("victim.cut", 0.0),
        "victim.cost_evals": calls.get("victim.cost_of", 0),
        "victim.victims_per_deadlock": _ratio(
            calls.get("victim.victims", 0), deadlocks
        ),
        "rollback.calls": calls.get("rollback", 0),
        "rollback.self_s": own.get("rollback", 0.0),
        "rollback.states_lost": summary["states_lost"],
        "rollback.overshoot_states": summary["overshoot_states"],
        "rollback.states_lost_per_commit": _ratio(
            summary["states_lost"], commits
        ),
        "metrics.deadlock_arcs_self_s": own.get(
            "metrics.deadlock_arcs", 0.0
        ),
        "metrics.cycle_arcs_calls": calls.get("metrics.cycle_arcs", 0),
        "observability.publish_calls": calls.get(
            "observability.publish", 0
        ),
        "observability.publish_self_s": own.get(
            "observability.publish", 0.0
        ),
        "observability.events_per_commit": _ratio(
            calls.get("observability.publish", 0), commits
        ),
        "service.decode_self_s": own.get("service.decode", 0.0),
        "service.encode_self_s": own.get("service.encode", 0.0),
        "service.handle_calls": handles,
        "service.handle_self_s": own.get("service.handle", 0.0),
        "service.server_ms_per_req": 1000.0 * _ratio(server_s, handles),
        "wal.fsyncs_per_commit": _ratio(calls.get("wal.fsync", 0), commits),
        "wal.fsync_s": own.get("wal.fsync", 0.0),
    }
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _unit in PER_LAYER}
