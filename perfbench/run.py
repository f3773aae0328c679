"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-hotspot --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics (see
``perfbench/README.md``).  Every metric is printed as ``name = value
unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-stream", "sim-hotspot", "svc-durable")
#: Seconds after which a run gives up.
TIME_LIMIT_S = 170


def _out_of_time(_signum: int, _frame: object) -> None:
    raise SystemExit(f"run exceeded {TIME_LIMIT_S} s")


def _terminated(_signum: int, _frame: object) -> None:
    # Unwind, so that a running lock server is stopped too.
    raise SystemExit("terminated")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(args: argparse.Namespace, out_dir: Path) -> dict:
    import sim
    import svc

    if args.workload == "svc-durable":
        if args.trace:
            return svc.run_traced(args.seed, args.seconds, ROOT, out_dir)
        return svc.run(args.seed, args.seconds, ROOT, out_dir)
    if args.trace:
        return sim.run_traced(args.workload, args.seed, out_dir)
    return sim.run(args.workload, args.seed, args.seconds)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"cannot find the program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"cannot find {spec_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    from sim import WrongResult

    # A run that thrashes must still end within the driver's limit.
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(TIME_LIMIT_S)
    try:
        report = _measure(args, ROOT / ".bench_out")
    except WrongResult as exc:
        print(f"CORRECTNESS CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1
    missing = sorted(set(wanted) - set(report["metrics"]))
    if missing:
        raise SystemExit(f"workload did not report {missing}")
    for line in report["lines"]:
        print(line)
    metrics = {}
    for name in wanted:
        value, unit = report["metrics"][name]
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
