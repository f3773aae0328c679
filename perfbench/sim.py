"""The simulator workloads: ``sim-stream`` and ``sim-hotspot``.

Both run the in-process :class:`~repro.simulation.SimulationEngine` over
the ``mcs`` strategy and the ``ordered-min-cost`` policy with a seeded
:class:`~repro.simulation.RandomInterleaving`.

* ``sim-stream`` admits 1,500 zipf-skewed transactions one by one
  through ``SimulationEngine.add_at``, spaced at 1.5 x the generated
  programs' mean length (operations + 1), so offered load stays well
  below one step per tick.  The live population stays tiny while
  the registered population grows: per-step cost should follow the
  former.
* ``sim-hotspot`` runs many small batches in which every transaction is
  admitted at once and most of them fight over a few hot entities with
  shared and exclusive locks, so most of the work is deadlock
  resolution.  Batch sizes are kept small because the cost of one batch
  grows steeply and unevenly with its size; many of them per run keep
  the run-to-run spread small.

The first execution of each of the first :data:`MEMORY_INSTANCES`
instances runs in a forked copy of the process, which measures its
memory as well as its time (see :func:`_forked`).

A run sets every instance up, checks each final state against
``expected_final_state``, and repeats the instances until ``--seconds``
have passed.  Throughput is commits per CPU second:
the simulator is single-threaded and does no I/O, so CPU time leaves
out the time other tenants hold the processor.  What they still change
is how fast it runs, from one second to the next, so every chunk of
:data:`CHUNK_STEPS` steps is rescaled to the reference pace by the pace
sampled around it (see ``pace.py``).  A ``sim-hotspot`` run reports
the median over its batches: a rare batch whose deadlocks explode would
otherwise swing a whole run.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import Scheduler
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    SimulationResult,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)

from memory import peak_rss_mb, reset_peak_rss
from pace import Pace
from layers import PER_LAYER, per_layer, summarize
from tracer import Tracer, tap_layers, write_spans

STREAM = WorkloadConfig(
    n_transactions=1500,
    n_entities=100,
    locks_per_txn=(2, 5),
    write_ratio=0.8,
    skew="zipf",
    zipf_theta=0.8,
)

#: Arrival spacing as a multiple of the mean program length.  At 1.1 the
#: offered load leaves no room for the steps rollbacks repeat: seed 109
#: hit a burst of deadlocks, its live population grew past 300 and the
#: run thrashed (2,000 rollbacks, 11 commits per 5,000 steps) instead of
#: finishing.
ARRIVAL_FACTOR = 1.5

HOTSPOT = WorkloadConfig(
    n_transactions=16,
    n_entities=6,
    locks_per_txn=(3, 6),
    write_ratio=0.5,
    skew="hotspot",
)

#: Batches per ``sim-hotspot`` run.
HOTSPOT_BATCHES = 200

#: Engine steps per timed chunk.
CHUNK_STEPS = 200

#: Set-ups of the whole instance set timed for ``setup_s``.
SETUP_REPEATS = 9

#: Instances (the first ones of the run) whose memory ``peak_rss_mb``
#: measures.  One ``sim-hotspot`` batch grows the RSS by 0.4-1.8 MB, so
#: the median needs many (README.md, "Steadiness").
MEMORY_INSTANCES = 64


@dataclass(frozen=True)
class Instance:
    """One simulation input: a workload config and the seed it is drawn
    from; *stream* instances arrive one by one, the others at once."""

    config: WorkloadConfig
    seed: str
    stream: bool


@dataclass
class Prepared:
    engine: SimulationEngine
    expected: dict
    arrivals: dict[str, int]
    spacing: float


@dataclass
class Outcome:
    """What the executions of one instance measured."""

    commits: int
    steps: int
    states_lost: int
    #: CPU seconds of each execution at the reference pace.
    seconds: list[float] = field(default_factory=list)


def plan(workload: str, seed: int) -> list[Instance]:
    """The instances a run of *workload* at *seed* executes."""
    if workload == "sim-stream":
        return [Instance(STREAM, f"sim-stream/{seed}", stream=True)]
    return [
        Instance(HOTSPOT, f"sim-hotspot/{seed}/{i}", stream=False)
        for i in range(HOTSPOT_BATCHES)
    ]


def prepare(instance: Instance) -> Prepared:
    """Generate the programs, compute the expected final state, build the
    scheduler and admit every program (the part ``setup_s`` times)."""
    database, programs = generate_workload(instance.config, instance.seed)
    expected = expected_final_state(database, programs)
    scheduler = Scheduler(database, strategy="mcs", policy="ordered-min-cost")
    engine = SimulationEngine(
        scheduler,
        RandomInterleaving(rng=random.Random(f"{instance.seed}/interleave")),
        max_steps=50_000_000,
    )
    arrivals: dict[str, int] = {}
    spacing = 0.0
    if instance.stream:
        mean_length = statistics.fmean(
            len(program.operations) + 1 for program in programs
        )
        spacing = ARRIVAL_FACTOR * mean_length
        for index, program in enumerate(programs):
            arrivals[program.txn_id] = round(index * spacing)
            engine.add_at(arrivals[program.txn_id], program)
    else:
        for program in programs:
            arrivals[program.txn_id] = 0
            engine.add(program)
    return Prepared(engine, expected, arrivals, spacing)


class WrongResult(Exception):
    """A simulation ended in a state the workload does not allow."""


class ChunkTimer:
    """A step observer that reads the process CPU clock every
    :data:`CHUNK_STEPS` engine steps and samples the host's pace into
    *pace* after each chunk, outside its time.  Each chunk is kept as
    ``(seconds, index of the next pace sample)``."""

    def __init__(self, pace: Pace) -> None:
        self.pace = pace
        self.chunks: list[tuple[float, int]] = []
        self.steps = 0
        self.last = time.process_time()

    def __call__(self, _engine: SimulationEngine, _event: Any) -> None:
        self.steps += 1
        if self.steps % CHUNK_STEPS == 0:
            self.cut()

    def cut(self) -> None:
        now = time.process_time()
        self.chunks.append((now - self.last, len(self.pace.samples)))
        self.pace.sample()
        self.last = time.process_time()

    def reference_seconds(self) -> float:
        """The chunks' CPU time at the reference pace."""
        return sum(
            self.pace.reference_seconds(seconds, index)
            for seconds, index in self.chunks
        )


def execute(
    prepared: Prepared, pace: Pace
) -> tuple[SimulationResult, ChunkTimer]:
    """Run one prepared instance and check its outcome; returns the
    result and its chunk timer."""
    timer = ChunkTimer(pace)
    prepared.engine.on_step = timer
    result = prepared.engine.run()
    timer.cut()
    expected_commits = len(prepared.arrivals)
    if result.livelock_detected or result.shed:
        raise WrongResult("run ended by livelock or shedding")
    if len(result.committed) != expected_commits:
        raise WrongResult(
            f"{len(result.committed)} of {expected_commits} committed"
        )
    if result.final_state != prepared.expected:
        raise WrongResult("final state differs from expected_final_state")
    return result, timer


def _setup_seconds(instances: list[Instance], pace: Pace) -> float:
    """Median CPU time, at the reference pace, of setting up every
    instance of the run."""
    samples = []
    for _ in range(SETUP_REPEATS):
        pace.sample()
        started = time.process_time()
        for instance in instances:
            prepare(instance)
        seconds = time.process_time() - started
        pace.sample()
        samples.append(
            pace.reference_seconds(seconds, len(pace.samples) - 1)
        )
    return statistics.median(samples)


def _forked(instance: Instance) -> tuple[Outcome, float, float]:
    """Set up and run *instance* in a forked copy of this process; returns
    the execution's outcome, the peak RSS above the starting RSS in MB,
    and the arrival spacing.

    Memory a finished instance frees stays with the interpreter's
    allocator, and the next instance reuses it without growing the RSS:
    in one process, 36 of 40 ``sim-hotspot`` batches in a row grew it by
    nothing.  A fork made before anything ran starts each instance from
    the same heap.  The fork samples the pace for itself.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 0
        try:
            gc.collect()
            before = reset_peak_rss()
            prepared = prepare(instance)
            result, timer = execute(prepared, Pace())
            message = json.dumps([
                len(result.committed), result.steps,
                result.metrics.states_lost, timer.reference_seconds(),
                peak_rss_mb() - before, prepared.spacing,
            ])
        except BaseException as exc:
            code = 1 if isinstance(exc, WrongResult) else 2
            message = f"{type(exc).__name__}: {exc}"
        os.write(write, message.encode())
        os._exit(code)
    os.close(write)
    try:
        with os.fdopen(read) as pipe:
            message = pipe.read()
        _pid, status = os.waitpid(pid, 0)
    except BaseException:
        # Whatever stopped this process stops the copy too.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code == 1:
        raise WrongResult(message)
    if code != 0:
        raise RuntimeError(f"forked execution failed: {message}")
    commits, steps, states_lost, seconds, growth_mb, spacing = json.loads(
        message
    )
    return Outcome(commits, steps, states_lost, [seconds]), growth_mb, spacing


def run(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """The untraced run: every end-to-end metric."""
    instances = plan(workload, seed)
    started = time.perf_counter()
    # The first execution of the first instances runs in a fork, which
    # measures memory as well as time (before set-up, on a fresh heap).
    outcomes: list[Outcome] = []
    growth_mb: list[float] = []
    for instance in instances[:MEMORY_INSTANCES]:
        outcome, growth, spacing = _forked(instance)
        outcomes.append(outcome)
        growth_mb.append(growth)
    pace = Pace()
    setup_s = _setup_seconds(instances, pace)
    index = len(outcomes)
    while index < len(instances) or (
        # Start another execution only if it ends near --seconds.
        (elapsed := time.perf_counter() - started) + elapsed / index / 2
        < seconds
    ):
        position = index % len(instances)
        result, timer = execute(prepare(instances[position]), pace)
        if index < len(instances):
            outcomes.append(Outcome(
                len(result.committed), result.steps,
                result.metrics.states_lost,
            ))
        elif result.steps != outcomes[position].steps:
            raise WrongResult("a repeated instance took a different path")
        outcomes[position].seconds.append(timer.reference_seconds())
        del result
        index += 1
    rate = statistics.median(
        o.commits / statistics.fmean(o.seconds) for o in outcomes
    )
    commits = sum(o.commits for o in outcomes)
    lines = [
        f"{workload} seed {seed}: {len(instances)} instance(s) x "
        f"{instances[0].config.n_transactions} transactions, "
        f"{index} executions ({len(growth_mb)} forked) in "
        f"{time.perf_counter() - started:.1f} s; "
        f"pace loop at {1 / pace.scale():.3f}x its reference time "
        f"(median of {len(pace.samples)} samples)",
        f"peak_rss_mb is the median over {len(growth_mb)} instance(s) "
        f"(range {min(growth_mb):.3f}-{max(growth_mb):.3f} MB)",
        f"sim_states_lost_per_commit = "
        f"{sum(o.states_lost for o in outcomes) / commits:.6g} states",
    ]
    if instances[0].stream:
        lines.append(
            f"arrival spacing {spacing:.3f} steps "
            f"({ARRIVAL_FACTOR} x mean program length)"
        )
    attempted = index * instances[0].config.n_transactions
    return {
        "lines": lines,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "txn_per_s": (rate, "1/s"),
            "peak_rss_mb": (statistics.median(growth_mb), "MB"),
            "committed_share": (1.0, "ratio"),
        },
    }


def run_traced(
    workload: str, seed: int, out_dir: Path
) -> dict[str, Any]:
    """The traced run: one untraced pass for reference, then one traced
    pass over the same instances; every per-layer metric."""
    instances = plan(workload, seed)
    pace = Pace()
    pace.sample()
    reference_cpu = 0.0
    executed = 0
    for instance in instances:
        result, timer = execute(prepare(instance), pace)
        reference_cpu += timer.reference_seconds()
        executed += len(result.trace)
    tracer = Tracer()
    # Sampling the pace inside a traced run is a span of its own, so
    # that it is not counted as engine time.
    pace.sample = tracer.span("bench.pace", pace.sample)
    traced_cpu = 0.0
    results: list[SimulationResult] = []
    with tap_layers(tracer):
        timed_prepare = tracer.span("simulation.setup_admit", prepare)
        for instance in instances:
            result, timer = execute(timed_prepare(instance), pace)
            traced_cpu += timer.reference_seconds()
            results.append(result)
    write_spans(tracer, out_dir / f"{workload}-{seed}.spans.jsonl")
    summary = summarize(
        tracer,
        [result.metrics for result in results],
        [result.graph_counters for result in results],
    )
    steps = sum(result.steps for result in results)
    values = per_layer(
        summary,
        **{
            "simulation.steps": sum(len(r.trace) for r in results),
            "simulation.steps_per_cpu_s": executed / reference_cpu,
            "simulation.mean_runnable": sum(
                r.mean_runnable * r.steps for r in results
            ) / steps,
            "simulation.mean_blocked": sum(
                r.mean_blocked * r.steps for r in results
            ) / steps,
            "trace.run_s": tracer.total_by_name("simulation.engine")
            - tracer.total_by_name("bench.pace"),
            "trace.overhead_share": traced_cpu / reference_cpu - 1.0,
        },
    )
    attempted = len(instances) * instances[0].config.n_transactions
    units = dict(PER_LAYER)
    run_s = values["trace.run_s"]
    scans = values["simulation.engine_self_s"] + values[
        "simulation.runnable_scan_s"
    ]
    resolution = sum(values[name] for name in (
        "metrics.deadlock_arcs_self_s", "victim.select_self_s",
        "detection.check_self_s",
    ))
    return {
        "lines": [
            f"{workload} seed {seed}: traced run",
            f"share of trace.run_s in engine + runnable scans: "
            f"{scans / run_s:.3f}",
            f"share in deadlock arcs + victim select + detection check: "
            f"{resolution / run_s:.3f} "
            f"({(resolution + values['victim.cut_self_s']) / run_s:.3f} "
            f"with the cut select calls)",
        ],
        "attempted": attempted,
        "failed": attempted - summary["commits"],
        "metrics": {
            name: (value, units[name]) for name, value in values.items()
        },
    }
