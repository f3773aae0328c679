import pytest

from pace import REFERENCE_S, Pace


def test_reference_seconds_uses_the_median_of_the_samples_around():
    clock = Pace()
    clock.samples = [s * REFERENCE_S for s in (1, 2, 4, 1, 8, 2, 2)]
    # Between samples 2 and 3: median of samples 1..5 (2, 4, 1, 8, 2).
    assert clock.reference_seconds(4.0, 3) == pytest.approx(2.0)
    # At the ends the window holds the samples that exist.
    assert clock.reference_seconds(4.0, 0) == pytest.approx(2.0)
    assert clock.reference_seconds(4.0, 7) == pytest.approx(2.0)
    # Past the last sample, the last one counts.
    assert clock.reference_seconds(4.0, 12) == pytest.approx(2.0)
    assert clock.scale() == pytest.approx(0.5)


def test_one_slow_sample_does_not_move_the_rescaling():
    clock = Pace()
    clock.samples = [REFERENCE_S] * 3 + [10 * REFERENCE_S] + [REFERENCE_S] * 3
    assert clock.reference_seconds(3.0, 3) == pytest.approx(3.0)
