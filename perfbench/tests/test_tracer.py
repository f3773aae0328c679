import pytest

from tracer import Span, Tracer, self_times, tap_layers


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "T1", 0.0),
        Span(1, "child", 1.0, 3.0, 0, "T1", 0.0),
        Span(2, "child", 4.0, 8.0, 0, "T1", 0.5),
        Span(3, "grandchild", 5.0, 6.0, 2, "T1", 0.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.0])


def test_overlapping_children_are_covered_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None, 1.0),
        Span(1, "a", 1.0, 5.0, 0, None, 0.0),
        Span(2, "b", 3.0, 7.0, 0, None, 0.0),
        Span(3, "c", 9.0, 12.0, 0, None, 0.0),  # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0 - 1.0)


def test_tracer_records_parents_keys_counts_and_light_time():
    tracer = Tracer()
    leaf = tracer.counted("leaf", lambda: None)
    light = tracer.timed("light", lambda: leaf())
    inner = tracer.span("inner", lambda txn: light())
    outer = tracer.span("outer", lambda txn: inner("T9") or inner("T9"),
                        key_of=lambda args: args[0])
    outer("T7")
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].sid
    # A span that names no key inherits its parent's.
    assert {span.key for span in tracer.spans} == {"T7"}
    assert tracer.calls() == {"outer": 1, "inner": 2, "light": 2, "leaf": 2}
    assert by_name["inner"].light > 0
    totals = tracer.self_by_name()
    assert totals["light"] == pytest.approx(tracer.light_s["light"])


def test_tap_layers_restores_the_originals():
    from repro.core.scheduler import Scheduler
    from repro.graphs import algorithms
    from repro.service import protocol

    before = (
        Scheduler.step, Scheduler.__dict__["all_done"],
        algorithms.min_cost_vertex_cut, protocol.decode,
    )
    with tap_layers(Tracer(), service=True):
        assert Scheduler.step is not before[0]
        assert protocol.decode is not before[3]
    after = (
        Scheduler.step, Scheduler.__dict__["all_done"],
        algorithms.min_cost_vertex_cut, protocol.decode,
    )
    assert after == before


def test_tapped_run_is_unchanged_and_traced():
    import random

    from repro import Scheduler
    from repro.simulation import (
        RandomInterleaving, SimulationEngine, WorkloadConfig,
        generate_workload,
    )

    def run():
        config = WorkloadConfig(
            n_transactions=8, n_entities=4, locks_per_txn=(2, 3),
            write_ratio=0.5, skew="hotspot",
        )
        db, programs = generate_workload(config, seed=3)
        engine = SimulationEngine(
            Scheduler(db), RandomInterleaving(rng=random.Random(3))
        )
        for program in programs:
            engine.add(program)
        return engine.run()

    plain = run()
    tracer = Tracer()
    with tap_layers(tracer):
        traced = run()
    assert traced.trace.fingerprint() == plain.trace.fingerprint()
    calls = tracer.calls()
    assert calls["scheduler.step"] == len(plain.trace)
    assert calls["simulation.engine"] == 1
    assert calls["detection.check"] >= plain.metrics.deadlocks > 0
