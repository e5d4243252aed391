"""One benchmark process: set up a workload, time its solves, report.

Run by ``run.py``, once to measure and again with ``--setup-only`` to sample
the set-up time.  The worker prints ``READY`` on its own line when set-up is
done, just before the first timed solve, and with ``--setup-only`` exits
there.  Otherwise it prints one JSON object as its last line: raw pass
times, per-pass costs, failure counts, peak memory and, with ``--trace 1``,
the per-layer metrics of each traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import result_violations
from layers import LAYER_UNITS, LayerTracer, SpanRecorder, geomean, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> Any:
    """Import ``repro.api`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from repro import api
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}") from exc
    if src.resolve() not in Path(api.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {api.__file__}, not from {src}")
    return api


def solve_pass(
    solve: Callable[[Any], Any],
    requests: List[Any],
    trivial: List[Optional[float]],
    reference: Optional[List[Any]],
    problems: List[str],
) -> Tuple[float, List[Any], int]:
    """Solve every request once, back to back.

    Returns the seconds spent in solves, the results (``None`` where a
    solve raised) and how many solves failed; failure descriptions go to
    ``problems``.
    """
    results: List[Any] = []
    failed = 0
    seconds = 0.0
    for k, request in enumerate(requests):
        start = time.perf_counter()
        try:
            result = solve(request)
        except Exception:  # a failed solve is a benchmark result, not a crash
            result = None
            problems.append(traceback.format_exc(limit=3))
        seconds += time.perf_counter() - start
        results.append(result)
        if result is None:
            failed += 1
            continue
        violations = result_violations(
            result,
            trivial_cost=trivial[k],
            reference=reference[k] if reference else None,
        )
        if violations:
            problems.append(f"{result.dag_name}: {'; '.join(violations)}")
            failed += 1
    return seconds, results, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced passes' spans here (JSONL)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    api = import_program()
    requests = workload.requests(args.seed)
    api.solve(workload.warmup_request())
    trivial: List[Optional[float]] = [None] * len(requests)
    if workload.bounded_by_trivial:
        from repro.spec import SolveRequest

        trivial = [
            api.solve(SolveRequest(spec=r.spec, scheduler="trivial")).total_cost
            for r in requests
        ]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    problems: List[str] = []
    attempted = failed = 0
    plain_seconds: List[float] = []
    traced_seconds: List[float] = []
    costs: List[float] = []
    layers: List[Dict[str, float]] = []
    spans: List[Dict[str, Any]] = []
    reference: Optional[List[Any]] = None
    start = time.perf_counter()
    longest = 0.0
    # A round is one untraced pass, plus one traced pass with --trace 1.  A
    # new round starts only while the slowest round so far still fits.
    while not plain_seconds or time.perf_counter() - start + longest <= args.seconds:
        round_start = time.perf_counter()
        seconds, results, bad = solve_pass(api.solve, requests, trivial, reference, problems)
        attempted += len(requests)
        failed += bad
        plain_seconds.append(seconds)
        if not bad:
            costs.append(geomean([r.total_cost for r in results]))
            if workload.deterministic and reference is None:
                reference = results
        if args.trace:
            recorder = SpanRecorder()

            def traced_solve(request: Any) -> Any:
                return recorder.call("api.solve", api.solve, (request,), {})

            with LayerTracer(recorder):
                seconds, _, bad = solve_pass(traced_solve, requests, trivial, reference, problems)
            attempted += len(requests)
            failed += bad
            traced_seconds.append(seconds)
            layers.append(layer_metrics(recorder.spans))
            spans.extend(dict(span, round=len(layers)) for span in recorder.spans)
        longest = max(longest, time.perf_counter() - round_start)

    report: Dict[str, Any] = {
        "plain_seconds": plain_seconds,
        "costs": costs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        report["traced_seconds"] = traced_seconds
        report["layers"] = {
            name: [metrics[name] for metrics in layers]
            for name in LAYER_UNITS
            if name != "trace.overhead"
        }
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as handle:
                for span in spans:
                    handle.write(json.dumps(span, sort_keys=True) + "\n")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
