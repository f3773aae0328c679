"""The host's pace, sampled with a fixed loop, to rescale timings.

On the 2-vCPU virtual machine this benchmark was tuned on, other tenants
change how fast a core runs: a fixed pure-Python loop took between its
fastest time and 1.6x that for seconds at a time, and a whole run of the
same inputs came out up to 25% slower or faster than the next one (same
seed, five minutes apart).  CPU time does not remove that, because the
process is on the core the whole time — it just runs slower.

So a simulator run samples the pace: it times :func:`calibration_s`
after every chunk of steps (tens to hundreds of milliseconds) and
rescales the CPU time it measured in between to the pace at which the
loop takes :data:`REFERENCE_S`.  The
loop is benchmark code, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

#: Median CPU seconds of :func:`calibration_s` on the tuning machine.
REFERENCE_S = 0.0029

#: Samples on each side of an interval whose median rescales it.  The
#: pace changes within a second, and one 3 ms sample is itself noisy: on
#: 26 passes over the same 60 ``sim-hotspot`` batches, the passes' CPU
#: times spread 0.26 of their median as measured, 0.038 rescaled by the
#: mean of the two samples around every fifth chunk, and 0.025 rescaled
#: by the median of five samples taken after every chunk.
WINDOW = 2


def calibration_s() -> float:
    """CPU seconds of a fixed loop of dictionary updates, the kind of
    work the scheduler's hot paths do."""
    started = time.process_time()
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i % 997] = table.get(i % 997, 0) + i
    return time.process_time() - started


class Pace:
    """Samples of the host's pace over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(calibration_s())

    def scale(self) -> float:
        """Factor that turns seconds measured while these samples were
        taken into seconds at the reference pace."""
        return REFERENCE_S / statistics.median(self.samples)

    def reference_seconds(self, seconds: float, index: int) -> float:
        """*seconds* measured between samples ``index - 1`` and
        ``index``, rescaled to the reference pace by the median of the
        samples within :data:`WINDOW` places of the interval (those that
        exist; the last one if none does)."""
        around = self.samples[max(0, index - WINDOW):index + WINDOW + 1]
        return seconds * REFERENCE_S / statistics.median(
            around or self.samples[-1:]
        )
