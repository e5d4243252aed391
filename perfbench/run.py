"""Repository benchmark: ``repro.api.solve`` on paper-shaped workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload framework-1k --seed 1 --seconds 45 --trace 0

Each call measures one workload in its own worker process (``worker.py``),
then starts four more workers that only set up, so that ``setup_s`` is the
median of five set-ups.  The solves run serially through the public
``repro.api.solve`` and every result is checked (see ``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with all tracing off; with
``--trace 1`` they are the per-layer ones from the traced passes (see
``layers.py``), and the spans are written to ``perfbench/out/``.  Lines
before it print every metric by name and unit, plus ``fail_frac``.  The
exit code is 0 only if every solve passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Set-ups sampled per run, the measuring worker's included.
SETUP_SAMPLES = 5
#: Wall-clock cap on the whole command, which must end within 180 s.
DEADLINE_SECONDS = 170.0


def _wait_ready(proc: "subprocess.Popen[bytes]", deadline: float) -> bool:
    """Read the worker's stdout up to its READY line, unbuffered so that
    nothing after the line is consumed; False on EOF or past ``deadline``."""
    fd = proc.stdout.fileno()
    seen = b""
    while not seen.endswith(b"READY\n"):
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            return False
        byte = os.read(fd, 1)
        if not byte:
            return False
        seen += byte
    return True


def run_worker(args: List[str], deadline: float) -> Tuple[float, str]:
    """Run a worker; return (seconds until it printed READY, its last stdout line).

    Exits the benchmark with a non-zero code when the worker fails or runs
    past ``deadline``; the worker is always reaped first.
    """
    command = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = _wait_ready(proc, deadline)
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker ran past the deadline: {command}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready:
        raise SystemExit(f"perfbench: worker failed (exit {proc.returncode}): {command}")
    lines = out.decode().splitlines()
    return setup, lines[-1] if lines else ""


def summarize(report: Dict[str, Any], setups: List[float], *, trace: bool) -> Dict[str, Tuple[float, str]]:
    """The run's metrics, ``name -> (value, unit)``, from the measuring
    worker's report and the set-up samples."""
    plain = statistics.median(report["plain_seconds"])
    if trace:
        layers = {name: statistics.median(values) for name, values in report["layers"].items()}
        layers["trace.overhead"] = statistics.median(report["traced_seconds"]) / plain - 1.0
        return {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    return {
        "wall_s": (plain, "s"),
        # No pass without a failure: the run fails, and its cost reads 0.
        "cost": (statistics.median(report["costs"] or [0.0]), "cost"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="instance generator seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Turn SIGTERM into SystemExit, so that run_worker reaps its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    measure = [*common, "--trace", str(args.trace)]
    if args.trace:
        spans = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        measure += ["--spans", str(spans)]
    deadline = time.perf_counter() + DEADLINE_SECONDS
    setup, last = run_worker(measure, deadline)
    try:
        report = json.loads(last)
    except json.JSONDecodeError:
        raise SystemExit(f"perfbench: the measuring worker printed no report: {last!r}") from None
    setups = [setup]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker([*common, "--setup-only"], deadline)[0])

    metrics = summarize(report, setups, trace=bool(args.trace))
    attempted, failed = int(report["attempted"]), int(report["failed"])
    for problem in report["problems"]:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    passes = len(report["plain_seconds"])
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {passes} untraced pass(es)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} fraction")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
