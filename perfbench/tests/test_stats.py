import json
from pathlib import Path

import pytest

import layers
from stats import Tail, regressions, tail

ROOT = Path(__file__).resolve().parents[2]


def test_tail_is_p99_with_enough_samples_beyond():
    values = list(range(1, 2001))  # 1..2000
    result = tail(values)
    assert result == Tail(1980, 99.0, 2000)
    assert sum(v > result.value for v in values) == 20


def test_tail_falls_back_to_ten_samples_beyond():
    values = list(range(1, 501))
    result = tail(values)
    assert result.samples == 500
    assert sum(v > result.value for v in values) == 10
    assert result.value == 490 and result.percentile == 98.0


def test_tail_at_the_smallest_sample_count():
    assert tail(list(range(1, 12))) == Tail(1, 100.0 / 11, 11)


def test_tail_without_ten_samples_beyond_reports_the_median():
    assert tail([5.0, 1.0, 3.0]) == Tail(3.0, 50.0, 3)
    with pytest.raises(ValueError):
        tail([])


def test_tail_ignores_input_order():
    assert tail([3, 1, 2] * 10) == tail(sorted([3, 1, 2] * 10))


def test_regressions_respect_direction_and_bound():
    metrics = [
        {"name": "rate", "better": "higher", "bound": 0.1},
        {"name": "latency", "better": "lower", "bound": 0.1},
    ]
    parent = {"rate": [100, 100, 100], "latency": [10, 10, 10]}
    assert regressions(parent, {"rate": [95], "latency": [10.5]}, metrics) == {}
    flagged = regressions(parent, {"rate": [80], "latency": [12]}, metrics)
    assert flagged == pytest.approx({"rate": 0.2, "latency": 0.2})
    assert regressions(parent, {"rate": [150], "latency": [5]}, metrics) == {}


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])

