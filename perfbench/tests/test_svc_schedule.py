import asyncio
import random
import statistics
import time

import pytest

import svc


def test_due_times_are_seeded_poisson_offsets():
    first = svc.due_times(200.0, 50.0, random.Random("s"))
    assert first == svc.due_times(200.0, 50.0, random.Random("s"))
    assert first != svc.due_times(200.0, 50.0, random.Random("t"))
    assert first == sorted(first) and 0 < first[0] and first[-1] < 50.0
    gaps = [b - a for a, b in zip(first, first[1:])]
    assert statistics.fmean(gaps) == pytest.approx(1 / 200.0, rel=0.05)
    assert len(first) == pytest.approx(200 * 50, rel=0.05)


def test_lateness_and_latency_are_timed_from_the_due_time():
    phase = svc.Phase("low")
    phase.note_start(due=10.0, started=10.004)
    phase.note_start(due=11.0, started=10.999)  # early wake-ups are not late
    phase.note_commit(due=10.0, acked=10.030)
    assert phase.late_ms == pytest.approx([4.0, 0.0])
    assert phase.latencies_ms == pytest.approx([30.0])
    assert phase.commits == 1


def test_open_loop_counts_a_stall_against_later_transactions(monkeypatch):
    """A generator stall makes later transactions start late; their
    latency still runs from when they were due."""

    async def fake_transact(wire, connection, spec, rng):
        await asyncio.sleep(0.001)
        return "T"

    monkeypatch.setattr(svc, "transact", fake_transact)
    phase = svc.Phase("high")

    async def scenario():
        loop = asyncio.get_running_loop()
        # Block the loop for 50 ms shortly after the phase starts.
        loop.call_later(0.01, time.sleep, 0.05)
        await svc.open_loop(
            None, phase, 400.0, 0.2, random.Random(1), random.Random(2)
        )

    asyncio.run(scenario())
    count = len(svc.due_times(400.0, 0.2, random.Random(1)))
    assert phase.commits == count == len(phase.late_ms)
    assert max(phase.late_ms) >= 30.0
    assert max(phase.latencies_ms) >= max(phase.late_ms)
    assert min(phase.late_ms) < 5.0


def test_mix_is_seeded_and_shaped():
    stream = svc.specs(random.Random(4))
    sample = [next(stream) for _ in range(2000)]
    again = svc.specs(random.Random(4))
    assert sample == [next(again) for _ in range(2000)]
    writers = [s for s in sample if s.writer]
    assert len(writers) / len(sample) == pytest.approx(svc.WRITER_SHARE, abs=0.03)
    assert all(len(s.entities) == 2 for s in writers)
    assert all(len(s.entities) == 3 for s in sample if not s.writer)
    assert all(len(set(s.entities)) == len(s.entities) for s in sample)
