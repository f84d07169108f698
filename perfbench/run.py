"""Benchmark of whml: one seeded workload per call, outputs checked, metrics
printed as the last line of standard output.

    python3 perfbench/run.py --workload loop_classify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; whml is imported from ./src.  The
workload runs in a fresh worker process (worker.py) for --seconds of whole
rounds; the set-up time is the median over SETUP_SAMPLES fresh processes.
With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics of a traced run.
See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
from inputs import WORKLOADS, make_inputs
from worker import import_cli_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
WORKER_SLACK_S = 120


def _env() -> dict:
    # one process at a time, at most two threads (the verify suite pool)
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), WHML_THREADS="2",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _worker(args: list, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, inputs_path: str):
    """(setup samples, worker result)."""
    base = ["--workload", workload, "--inputs", inputs_path]
    if workload == "cli_verify":
        setups = [import_cli_s(_env()) for _ in range(SETUP_SAMPLES)]
    else:
        setups = [_worker(base + ["--setup-only"], WORKER_SLACK_S)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    run = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        run += ["--trace-file", str(OUT / f"trace-{workload}-{seed}.json")]
    result = _worker(run, seconds + WORKER_SLACK_S)
    if workload != "cli_verify":
        setups.append(result["setup_s"])
    return setups, result


def end_to_end(workload: str, setups: list, result: dict) -> dict:
    # median ms per classify; mean ms per probe, root or verify call
    per_op = statistics.median if workload == "loop_classify" else statistics.mean
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": result["round_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "work_per_s": {"value": result["units"] / result["unit_s"], "unit": "1/s"},
        "op_ms": {"value": 1000.0 * per_op(result["latencies"]), "unit": "ms"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "whml" / "__init__.py").is_file():
        print(f"perfbench: no whml sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    OUT.mkdir(exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    fd, inputs_path = tempfile.mkstemp(prefix=f"inputs-{args.workload}-", suffix=".json",
                                       dir=OUT)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    try:
        setups, result = measure(args.workload, args.seed, args.seconds, args.trace,
                                 inputs_path)
    finally:
        os.unlink(inputs_path)

    failed_per_round, errors = checks.check(args.workload, inputs, result["outputs"])
    if not result["identical"]:
        errors.append("rounds of the same inputs gave different outputs")
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    metrics = result["layer_metrics"] if args.trace else end_to_end(args.workload, setups, result)
    if sorted(metrics) != sorted(names):
        print("perfbench: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    rounds = result["rounds"]
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds")
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": failed_per_round * rounds,
        "metrics": {name: metrics[name] for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
