"""The service workload: ``svc-durable``.

The lock service runs as deployed — ``python -m repro serve`` with a WAL
and a journal, in its own process, so every WAL record is fsynced.  The
load generator is one process with one asyncio thread and two TCP
connections; concurrent sessions share a connection and are matched to
their replies by ``rid``.

Mix: 70% of transactions X-lock 2 of the 4 hot entities in random
order, then read and write (value + 1) each; the other 30% S-lock 3 of
them and read them.  Blocks, deadlocks and partial rollbacks therefore
happen over the wire.  Phases:

* ``serial`` — ``SERIAL_TXNS`` transactions of the mix, one at a time,
  right after boot.  With nothing concurrent the server does the same
  work on every host, so ``peak_rss_mb`` is taken when it ends: the
  server's peak RSS above its RSS after boot;
* ``low`` and ``high`` — open loop, seeded Poisson arrivals at fixed
  rates, at most ``MAX_SESSIONS`` transactions open at once; latency
  runs from each transaction's due time to its commit acknowledgement,
  and the generator reports how late it started them;
* ``sat`` — closed loop, ``MAX_SESSIONS`` transactions outstanding.
  ``txn_per_s`` is its commits per CPU second of the server process,
  like the simulator's commits per CPU second; the commits per wall
  second are printed too.  CPU time leaves out the time the server is
  blocked in ``fsync`` waiting for the disk, so the gated figure sees
  only the CPU cost of durability (see README.md).  Server CPU time
  and boot time are rescaled to the reference pace of the host (see
  ``pace.py``).  Every server runs pinned to one CPU and the generator
  on the others; the generator moves to the server's CPU for each pace
  sample, because the CPUs of a shared virtual machine do not slow
  down together.

A rejected ``begin`` (429 over capacity, 503 breaker or drain) and a
shed transaction (503) are retried as a new transaction after a seeded
backoff; a transaction fails when it runs out of attempts or a request
times out.

Correctness: ``repro serve --verify`` must replay the journal with zero
divergences, and every commit the generator saw acknowledged must be in
the WAL's recovered committed set.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from memory import peak_rss_mb, reset_peak_rss
from pace import Pace
from sim import WrongResult
from stats import nearest_rank, tail

HERE = Path(__file__).resolve().parent

HOT = ("e000", "e001", "e002", "e003")
WRITER_SHARE = 0.7
MAX_SESSIONS = 8
CONNECTIONS = 2

#: Open-loop arrival rates (transactions per second), about 1/3 and 2/3
#: of the closed-loop ``sat`` throughput measured on the parent commit
#: (see README.md, "Rates").
LOW_RATE = 65.0
HIGH_RATE = 130.0

#: Transactions of the ``serial`` phase, which runs before the timed
#: phases (about 2.5 s).
SERIAL_TXNS = 600
#: Share of ``--seconds`` each timed phase runs for.
PHASES = (("low", 0.25), ("high", 0.25), ("sat", 0.5))

#: Share of ``--seconds`` the traced run spends on its untraced
#: ``sat`` reference.
REFERENCE_SHARE = 0.3

REQUEST_TIMEOUT_S = 60.0
MAX_ATTEMPTS = 1000
BACKOFF_BASE_S = 0.005
BACKOFF_CAP_S = 0.2
BOOTS = 9
#: Logical steps a blocked transaction may wait before the deadline
#: ladder acts.  ``repro serve`` defaults to 60, which sheds a stream of
#: transactions queued behind this workload's four hot entities and then
#: trips the circuit breaker; the service benchmark in ``benchmarks/``
#: uses 400 too.
DEADLINE_STEPS = 400
SERVER_ARGS = (
    "--entities", str(len(HOT)),
    "--max-sessions", str(MAX_SESSIONS),
    "--deadline", str(DEADLINE_STEPS),
    "--drain-timeout", "5",
)
RETRYABLE = (429, 503)
#: Seconds between two samples of the host's pace during ``sat``.
PACE_INTERVAL_S = 0.1


def _cpu_split() -> tuple[set[int], set[int]]:
    """The CPU the server runs on and the CPUs the load generator runs
    on (the same one on a one-CPU host)."""
    cpus = os.sched_getaffinity(0)
    server = {max(cpus)}
    return server, (cpus - server) or server


SERVER_CPUS, GENERATOR_CPUS = _cpu_split()


@contextmanager
def on_cpus(cpus: set[int]) -> Iterator[None]:
    """Run this process (and the processes it starts) on *cpus* for the
    duration of the block."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def sample_pace(pace: Pace) -> None:
    """Sample the host's pace on the server's CPU."""
    with on_cpus(SERVER_CPUS):
        pace.sample()


@dataclass(frozen=True)
class Spec:
    """One generated transaction."""

    writer: bool
    entities: tuple[str, ...]


def specs(rng: random.Random) -> Iterator[Spec]:
    """An endless seeded stream of transactions of the mix."""
    while True:
        if rng.random() < WRITER_SHARE:
            yield Spec(True, tuple(rng.sample(HOT, 2)))
        else:
            yield Spec(False, tuple(rng.sample(HOT, 3)))


def due_times(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, duration)``."""
    times, at = [], rng.expovariate(rate)
    while at < duration:
        times.append(at)
        at += rng.expovariate(rate)
    return times


@dataclass
class Phase:
    """What one phase measured."""

    name: str
    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    commits: int = 0
    seconds: float = 0.0
    #: (commits, server CPU seconds) of each interval between two pace
    #: samples (``sat`` only).
    intervals: list[tuple[int, float]] = field(default_factory=list)
    #: The server's peak RSS above its RSS after boot, when the phase
    #: ended.
    server_growth_mb: float = 0.0

    def note_start(self, due: float, started: float) -> None:
        """Record how late the generator started a transaction due at
        *due* (both on the loop clock)."""
        self.late_ms.append(max(0.0, started - due) * 1000.0)

    def note_commit(self, due: float, acked: float) -> None:
        """Record a commit acknowledged at *acked*, timed from *due*."""
        self.commits += 1
        self.latencies_ms.append((acked - due) * 1000.0)


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    requests: int = 0
    rtt_s: float = 0.0
    rejects: dict[int, int] = field(default_factory=dict)
    retries: int = 0
    #: (transaction id, increments it wrote) per acknowledged commit.
    acked: list[tuple[str, int]] = field(default_factory=list)


class ProtocolFailure(WrongResult):
    """The service answered a request the workload cannot get wrong."""


class Wire:
    """Sessions multiplexed over a few connections, matched by ``rid``."""

    def __init__(self, stats: Stats) -> None:
        self.stats = stats
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task] = []
        self._waiting: dict[int, asyncio.Future] = {}
        self._next_rid = 0

    async def open(self, port: int, connections: int) -> None:
        for _ in range(connections):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self._writers.append(writer)
            self._readers.append(asyncio.create_task(self._route(reader)))

    async def _route(self, reader: asyncio.StreamReader) -> None:
        while line := await reader.readline():
            reply = json.loads(line)
            future = self._waiting.pop(reply.get("rid"), None)
            if future is not None and not future.done():
                future.set_result(reply)

    async def call(self, connection: int, **request: Any) -> dict:
        self._next_rid += 1
        rid = self._next_rid
        future = asyncio.get_running_loop().create_future()
        self._waiting[rid] = future
        request["rid"] = rid
        started = time.perf_counter()
        writer = self._writers[connection % len(self._writers)]
        writer.write((json.dumps(request) + "\n").encode())
        try:
            reply = await asyncio.wait_for(future, REQUEST_TIMEOUT_S)
        finally:
            self._waiting.pop(rid, None)
        self.stats.requests += 1
        self.stats.rtt_s += time.perf_counter() - started
        return reply

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def _body(wire: Wire, connection: int, txn: str, spec: Spec) -> bool:
    """The transaction's requests; False when the server shed it."""
    mode = "X" if spec.writer else "S"
    steps: list[dict[str, Any]] = [
        {"verb": "lock", "entity": e, "mode": mode} for e in spec.entities
    ]
    for entity in spec.entities:
        steps.append({"verb": "read", "entity": entity})
        if spec.writer:
            steps.append({"verb": "write", "entity": entity})
    steps.append({"verb": "commit"})
    value = None
    for step in steps:
        if step["verb"] == "write":
            step["value"] = int(value) + 1
        reply = await wire.call(connection, txn=txn, **step)
        if reply.get("code") == 503:
            return False
        if not reply.get("ok"):
            raise ProtocolFailure(f"{step['verb']} answered {reply}")
        value = reply.get("value")
    return True


async def transact(
    wire: Wire, connection: int, spec: Spec, rng: random.Random
) -> str | None:
    """Run one transaction to commit, retrying rejections and sheds.

    Returns the committed transaction id, or None once it failed.
    """
    stats = wire.stats
    stats.attempted += 1
    try:
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if attempt > 1:
                stats.retries += 1
                await asyncio.sleep(rng.uniform(
                    0, min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** attempt)
                ))
            reply = await wire.call(connection, verb="begin")
            code = reply.get("code")
            if code in RETRYABLE:
                stats.rejects[code] = stats.rejects.get(code, 0) + 1
                continue
            if not reply.get("ok"):
                raise ProtocolFailure(f"begin answered {reply}")
            txn = reply["txn"]
            if await _body(wire, connection, txn, spec):
                increments = len(spec.entities) if spec.writer else 0
                stats.acked.append((txn, increments))
                return txn
    except asyncio.TimeoutError:
        pass
    stats.failed += 1
    return None


async def open_loop(
    wire: Wire, phase: Phase, rate: float, duration: float,
    rng: random.Random, jitter: random.Random,
) -> None:
    """Start transactions drawn from *rng* at seeded Poisson due times;
    *jitter* draws the retry backoffs."""
    loop = asyncio.get_running_loop()
    offsets = due_times(rate, duration, rng)
    stream = specs(rng)
    tasks = []
    origin = loop.time()
    # The generator keeps at most as many transactions open as the
    # server admits; the rest wait their turn, and that wait counts in
    # their latency.  Without the cap, transactions the server turned
    # away (429) retried faster than it could refuse them, and a run
    # collapsed into a storm of 250,000 rejected requests.
    slots = asyncio.Semaphore(MAX_SESSIONS)

    async def one(index: int, due: float, spec: Spec) -> None:
        async with slots:
            committed = await transact(wire, index, spec, jitter)
        if committed is not None:
            phase.note_commit(due, loop.time())

    for index, offset in enumerate(offsets):
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.note_start(due, loop.time())
        tasks.append(asyncio.create_task(one(index, due, next(stream))))
    await asyncio.gather(*tasks)


async def one_at_a_time(
    wire: Wire, phase: Phase, count: int, rng: random.Random,
    jitter: random.Random,
) -> None:
    """Run *count* transactions drawn from *rng*, each after the last
    ended; *jitter* draws the retry backoffs."""
    stream = specs(rng)
    for index in range(count):
        if await transact(wire, index, next(stream), jitter) is not None:
            phase.commits += 1


async def closed_loop(
    wire: Wire, phase: Phase, duration: float, rng: random.Random,
    jitter: random.Random, pace: Pace, server_cpu: Callable[[], float],
) -> None:
    """Keep ``MAX_SESSIONS`` transactions drawn from *rng* outstanding
    for *duration*, sampling the host's pace every
    :data:`PACE_INTERVAL_S`; *jitter* draws the retry backoffs."""
    loop = asyncio.get_running_loop()
    stream = specs(rng)
    end = loop.time() + duration

    async def sampler() -> None:
        sample_pace(pace)
        last = (phase.commits, server_cpu())
        while (left := end - loop.time()) > 0:
            await asyncio.sleep(min(PACE_INTERVAL_S, left))
            now = (phase.commits, server_cpu())
            sample_pace(pace)
            phase.intervals.append((now[0] - last[0], now[1] - last[1]))
            last = now

    async def worker(index: int) -> None:
        while loop.time() < end:
            if await transact(wire, index, next(stream), jitter) is not None:
                if loop.time() <= end:
                    phase.commits += 1

    await asyncio.gather(
        sampler(), *(worker(i) for i in range(MAX_SESSIONS))
    )
    phase.seconds = duration


async def drive(
    server: "Server", seed: int, plan: list[tuple[str, float]], pace: Pace,
    serial: int = 0,
) -> tuple[Stats, dict[str, Phase], dict]:
    """Run *serial* transactions one at a time (the ``serial`` phase, when
    not 0), then *plan*'s phases, against *server*; the ``sat`` phase
    samples the host's pace into *pace* and reads the server's CPU
    clock."""
    port = server.port
    stats = Stats()
    wire = Wire(stats)
    await wire.open(port, CONNECTIONS)
    phases: dict[str, Phase] = {}
    try:
        if serial:
            phase = phases["serial"] = Phase("serial")
            started = time.perf_counter()
            await one_at_a_time(
                wire, phase, serial,
                random.Random(f"svc-durable/{seed}/serial"),
                random.Random(f"svc-durable/{seed}/serial/backoff"),
            )
            phase.seconds = time.perf_counter() - started
            phase.server_growth_mb = server.growth_mb()
        for name, seconds in plan:
            rng = random.Random(f"svc-durable/{seed}/{name}")
            jitter = random.Random(f"svc-durable/{seed}/{name}/backoff")
            phase = phases[name] = Phase(name)
            if name == "sat":
                await closed_loop(
                    wire, phase, seconds, rng, jitter, pace, server.cpu_s
                )
            else:
                rate = LOW_RATE if name == "low" else HIGH_RATE
                await open_loop(wire, phase, rate, seconds, rng, jitter)
            phase.server_growth_mb = server.growth_mb()
        status = await wire.call(0, verb="status")
    finally:
        await wire.close()
    return stats, phases, status


def run_drive(
    server: "Server", seed: int, plan: list[tuple[str, float]], pace: Pace,
    serial: int = 0,
) -> tuple[Stats, dict[str, Phase], dict]:
    """:func:`drive` on the load generator's CPUs."""
    with on_cpus(GENERATOR_CPUS):
        return asyncio.run(drive(server, seed, plan, pace, serial))


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    boot_s: float
    #: RSS when the port file was written; the peak-RSS watermark was
    #: reset then.
    boot_rss_mb: float
    wal: Path
    journal: Path
    summary: Path | None

    def cpu_s(self) -> float:
        """CPU seconds the server process has used so far."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text()
        utime, stime = fields.rsplit(")", 1)[1].split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def growth_mb(self) -> float:
        """Peak RSS since boot above the RSS after boot."""
        return peak_rss_mb(self.process.pid) - self.boot_rss_mb

    def stop(self) -> None:
        """Drain and stop the server, killing it if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def boot(root: Path, work: Path, tag: str, traced: bool) -> Server:
    """Start a server and time it until its port file is written."""
    wal = work / f"{tag}.wal.jsonl"
    journal = work / f"{tag}.journal.jsonl"
    port_file = work / f"{tag}.port"
    summary = work / f"{tag}.summary.json" if traced else None
    for path in (wal, journal, port_file):
        path.unlink(missing_ok=True)
    args = [
        "--port", "0", "--port-file", str(port_file),
        "--wal", str(wal), "--journal", str(journal), *SERVER_ARGS,
    ]
    if traced:
        command = [sys.executable, str(HERE / "svc_server.py"), *args,
                   "--summary", str(summary)]
    else:
        command = [sys.executable, "-m", "repro", "serve", *args]
    log = (work / f"{tag}.log").open("w")
    started = time.perf_counter()
    with on_cpus(SERVER_CPUS):
        process = subprocess.Popen(
            command, cwd=root, env=_env(root),
            stdout=log, stderr=subprocess.STDOUT,
        )
    log.close()
    while True:
        text = port_file.read_text() if port_file.exists() else ""
        if text.endswith("\n"):
            break
        if process.poll() is not None or time.perf_counter() - started > 60:
            process.kill()
            process.wait()
            raise RuntimeError(
                f"server did not start: {(work / f'{tag}.log').read_text()}"
            )
        time.sleep(0.001)
    boot_s = time.perf_counter() - started
    try:
        boot_rss_mb = reset_peak_rss(process.pid)
    except RuntimeError:
        process.kill()
        process.wait()
        raise
    return Server(
        process, int(text), boot_s, boot_rss_mb, wal, journal, summary
    )


def _boot_seconds(root: Path, work: Path) -> float:
    """Median boot time, at the reference pace, over several throwaway
    servers."""
    pace = Pace()
    samples = []
    for index in range(BOOTS):
        sample_pace(pace)
        server = boot(root, work, f"boot{index}", traced=False)
        server.stop()
        sample_pace(pace)
        samples.append(
            pace.reference_seconds(server.boot_s, len(pace.samples) - 1)
        )
    return statistics.median(samples)


def check(root: Path, server: Server, stats: Stats) -> int:
    """The correctness checks; returns the lost-update count.

    Replay must show zero divergences and every acknowledged commit
    must be durable.  Lost updates — acknowledged writer increments
    minus the final sum of the hot entities — are only counted.
    """
    from repro.service.journal import DurableWriteAheadLog

    replay = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--verify",
         str(server.journal)],
        cwd=root, env=_env(root), capture_output=True, text=True,
        timeout=170,
    )
    if replay.returncode != 0:
        raise WrongResult(f"journal replay diverged:\n{replay.stdout}")
    wal = DurableWriteAheadLog.open_existing(
        server.wal, {entity: 0 for entity in HOT}
    )
    try:
        state, committed = wal.recover_state()
    finally:
        wal.close()
    missing = [txn for txn, _inc in stats.acked if txn not in committed]
    if missing:
        raise WrongResult(f"acknowledged commits not in the WAL: {missing[:5]}")
    increments = sum(inc for _txn, inc in stats.acked)
    return increments - sum(state[entity] for entity in HOT)


def _server_cpu_s(sat: Phase) -> float:
    return sum(cpu for _commits, cpu in sat.intervals)


def _cpu_rate(sat: Phase, pace: Pace) -> float:
    """Commits of the ``sat`` phase per CPU second of the server, each
    interval's CPU time rescaled to the reference pace around it."""
    return sum(commits for commits, _cpu in sat.intervals) / sum(
        pace.reference_seconds(cpu, index + 1)
        for index, (_commits, cpu) in enumerate(sat.intervals)
    )


def _plan(seconds: float) -> list[tuple[str, float]]:
    return [(name, share * seconds) for name, share in PHASES]


def run(seed: int, seconds: float, root: Path, out: Path) -> dict[str, Any]:
    """The untraced run: every end-to-end metric."""
    work = out / "svc-durable"
    work.mkdir(parents=True, exist_ok=True)
    setup_s = _boot_seconds(root, work)
    pace = Pace()
    server = boot(root, work, "run", traced=False)
    try:
        stats, phases, status = run_drive(
            server, seed, _plan(seconds), pace, SERIAL_TXNS
        )
    finally:
        server.stop()
    lost = check(root, server, stats)
    growth = {name: phase.server_growth_mb for name, phase in phases.items()}
    sat = phases["sat"]
    lines = [
        f"svc-durable seed {seed}: rates low {LOW_RATE:g}/s, "
        f"high {HIGH_RATE:g}/s, sat {MAX_SESSIONS} outstanding",
        f"svc.sat.txn_per_s = {sat.commits / sat.seconds:.6g} 1/s "
        f"(commits per wall second, not gated); server CPU "
        f"{_server_cpu_s(sat):.2f} s; pace loop at {1 / pace.scale():.3f}x "
        f"its reference time (median of {len(pace.samples)} samples)",
        f"server: {status.get('commits')} commits, "
        f"{status.get('deadlocks')} deadlocks, "
        f"{status.get('rollbacks')} rollbacks, {stats.requests} requests; "
        f"RSS {server.boot_rss_mb:.2f} MB after boot",
        f"serial: {phases['serial'].commits} of {SERIAL_TXNS} transactions "
        f"committed one at a time in {phases['serial'].seconds:.2f} s; "
        f"peak RSS above boot when serial, low, high, sat end: "
        + ", ".join(f"{mb:.3f}" for mb in growth.values())
        + " MB (peak_rss_mb is the first)",
    ]
    for name in ("low", "high"):
        phase = phases[name]
        p99 = tail(phase.latencies_ms)
        late = sorted(phase.late_ms)
        lines += [
            f"svc.{name}.txn_p50_ms = "
            f"{statistics.median(phase.latencies_ms):.6g} ms",
            f"svc.{name}.txn_p99_ms = {p99.value:.6g} ms "
            f"(p{p99.percentile:.2f} of {p99.samples} samples)",
            f"{name} generator lateness p99 {nearest_rank(late, 0.99):.3f} ms, "
            f"max {late[-1]:.3f} ms",
        ]
    lines += [
        f"service.lost_updates = {lost} of "
        f"{sum(inc for _txn, inc in stats.acked)} acknowledged increments "
        f"(counted, not asserted)",
        f"rejects {stats.rejects}, retries {stats.retries}; journal replay "
        f"verified, every acknowledged commit is in the WAL",
    ]
    return {
        "lines": lines,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "txn_per_s": (_cpu_rate(sat, pace), "1/s"),
            "peak_rss_mb": (growth["serial"], "MB"),
            "committed_share": (
                (stats.attempted - stats.failed) / stats.attempted, "ratio"
            ),
        },
    }


def run_traced(
    seed: int, seconds: float, root: Path, out: Path
) -> dict[str, Any]:
    """The traced run: an untraced ``sat`` reference, then every phase
    against the traced server; returns the per-layer metrics."""
    import layers

    work = out / "svc-durable"
    work.mkdir(parents=True, exist_ok=True)
    reference = boot(root, work, "reference", traced=False)
    ref_pace = Pace()
    try:
        ref_stats, ref_phases, _status = run_drive(
            reference, seed, [("sat", REFERENCE_SHARE * seconds)], ref_pace,
        )
    finally:
        reference.stop()
    check(root, reference, ref_stats)
    server = boot(root, work, "traced", traced=True)
    pace = Pace()
    started = time.perf_counter()
    try:
        stats, phases, _status = run_drive(
            server, seed, _plan(seconds), pace
        )
    finally:
        server.stop()
    run_s = time.perf_counter() - started
    lost = check(root, server, stats)
    summary = json.loads(server.summary.read_text())
    commits = len(stats.acked)
    server_ms = layers.per_layer(summary)["service.server_ms_per_req"]
    late = sorted(phases["low"].late_ms + phases["high"].late_ms)
    untraced_tps = _cpu_rate(ref_phases["sat"], ref_pace)
    traced_tps = _cpu_rate(phases["sat"], pace)
    extra = {
        "service.wait_ms_per_req": (
            1000.0 * stats.rtt_s / stats.requests - server_ms
        ),
        "service.requests_per_commit": stats.requests / commits,
        "service.lost_updates": lost,
        "wal.bytes_per_commit": server.wal.stat().st_size / commits,
        "journal.bytes_per_commit": server.journal.stat().st_size / commits,
        "admission.rejects_429": stats.rejects.get(429, 0),
        "admission.retries_per_commit": stats.retries / commits,
        "loadgen.late_p99_ms": nearest_rank(late, 0.99),
        "trace.run_s": run_s,
        "trace.overhead_share": untraced_tps / traced_tps - 1.0,
    }
    units = dict(layers.PER_LAYER)
    return {
        "lines": [
            f"svc-durable seed {seed}: traced run; sat {traced_tps:.1f} "
            f"commits per server CPU second traced vs {untraced_tps:.1f} "
            f"untraced",
        ],
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: (value, units[name])
            for name, value in layers.per_layer(summary, **extra).items()
        },
    }
