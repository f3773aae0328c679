"""A planted 2x work regression in one layer must show where that layer
does the work (sim-hotspot) and nowhere else (sim-stream).

The regression makes ``ConcurrencyGraph.cycle_arcs`` — the arc walk that
``Metrics.record_deadlock_arcs`` consumes for every detected deadlock —
do its work twice.  It is about a third of sim-hotspot's CPU, so the
planted work costs more of ``txn_per_s`` than its 0.25 bound.  The
comparison is the gate's own: the medians of several runs of each side,
judged by ``stats.regressions`` against every end-to-end bound in
``BENCHMARK.json``.  Parent and planted runs of a seed alternate, so a
slow spell of the host hits both sides.  Each run executes every
instance once (``seconds=0``); the test takes several minutes.
"""

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path

import sim
from stats import regressions

ROOT = Path(__file__).resolve().parents[2]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
SEEDS = (1, 2, 3)


@contextmanager
def arcs_twice():
    from repro.graphs.concurrency import ConcurrencyGraph

    original = ConcurrencyGraph.cycle_arcs

    def twice(self, cycle):
        original(self, cycle)
        return original(self, cycle)

    ConcurrencyGraph.cycle_arcs = twice
    try:
        yield
    finally:
        ConcurrencyGraph.cycle_arcs = original


def paired_runs(workload):
    parent: dict[str, list[float]] = {}
    change: dict[str, list[float]] = {}
    for seed in SEEDS:
        for side, plant in ((parent, nullcontext), (change, arcs_twice)):
            with plant():
                report = sim.run(workload, seed, seconds=0)
            for name, (value, _unit) in report["metrics"].items():
                side.setdefault(name, []).append(value)
    return parent, change


def test_planted_regression_shows_on_sim_hotspot_only():
    parent, change = paired_runs("sim-hotspot")
    flagged = regressions(parent, change, END_TO_END)
    assert "txn_per_s" in flagged, (parent["txn_per_s"], change["txn_per_s"])
    parent, change = paired_runs("sim-stream")
    assert regressions(parent, change, END_TO_END) == {}
