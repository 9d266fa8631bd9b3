"""Benchmark of the trisym command line on seeded generated maps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client sends requests in a fixed seeded order, each after the previous
one completes (a closed loop).  A request is one ``trisym.cli.main`` call
(load, decide, write the report), or for ``small-cross-validate`` one fresh
``python -m trisym.cli`` process.  Every output is checked, after the timed
interval, against an answer known without the route under test.  The
process pins itself to one processor, and after every request it times a
fixed reference (``perfbench/calibrate.py``) that calibrates the reported
times for the host's speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the traced
run: a counting pass over a fixed set of requests, then requests that
alternate between untraced and span-traced, and it reports the per-layer
metrics and the tracing overhead.  Spans are written to
``.perfbench_work/traces/``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = ROOT / "perfbench" / "child.py"

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
MIN_REQUESTS = TAIL_BEYOND + 1  # a run continues past --seconds until it has these
MIN_TRACED = 3  # traced and untraced requests each, in the traced run
COUNT_PAIRS = 2  # clean maps (with their mutants) in the counting pass
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "maps_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MiB",
}


@dataclass
class Request:
    case: object
    out: Path
    code: Optional[int] = None
    seconds: float = 0.0
    error: str = ""
    reference: float = 0.0  # seconds of the calibration reference around it


class Server:
    """Sends one workload's requests: in-process through ``cli.main`` or as
    fresh interpreters."""

    def __init__(self, workload, work: Path):
        from trisym import cli

        self.workload = workload
        self.work = work
        self.main = cli.main
        self.served = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def request(self, case) -> Request:
        req = Request(case, self.work / f"out{self.served:05d}.json")
        self.served += 1
        return req

    def serve(self, req: Request, main: Optional[Callable] = None,
              launcher: Optional[list[str]] = None) -> Request:
        """One timed request.  ``main`` replaces ``cli.main`` in process;
        ``launcher`` replaces ``python -m trisym.cli`` for fresh processes."""
        argv = self.workload.argv(req.case, req.out)
        if self.workload.fresh_process:
            cmd = (launcher or [sys.executable, "-m", "trisym.cli"]) + argv
            start = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
                req.code = proc.returncode
                if proc.returncode not in (0, 1):
                    req.error = proc.stderr.decode(errors="replace")[-500:]
            except subprocess.TimeoutExpired:
                req.error = "request timed out"
            req.seconds = perf_counter() - start
            return req
        start = perf_counter()
        try:
            req.code = (main or self.main)(argv)
        except SystemExit as exc:
            req.code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            req.error = f"{type(exc).__name__}: {exc}"
        req.seconds = perf_counter() - start
        return req


def count_failures(workload, requests: list[Request]) -> int:
    failed = 0
    for req in requests:
        problem = req.error
        if not problem:
            text = req.out.read_text() if req.out.is_file() else ""
            problem = workload.check(req.case, req.code, text)
        if problem:
            failed += 1
            if failed <= 5:
                print(f"FAILED {req.case.path.name}: {problem}", file=sys.stderr)
    return failed


def run_untraced(server: Server, order: list, seconds: float,
                 before: float) -> list[Request]:
    """The timed closed loop.  The calibration reference runs after each
    request; a request's ``reference`` is the mean of the runs just before
    (``before`` for the first request) and just after it."""
    from perfbench import calibrate

    requests: list[Request] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(requests) < MIN_REQUESTS:
        req = server.serve(server.request(order[len(requests) % len(order)]))
        after = calibrate.timed_reference()
        req.reference = (before + after) / 2
        requests.append(req)
        before = after
    return requests


def end_to_end(requests: list[Request], setup_s: float, setup_references: list[float],
               fresh_process: bool) -> tuple[dict, str]:
    """Calibrated end-to-end metrics, and a note with the uncalibrated
    figures.  Each request is calibrated by the reference around it, set-up
    by the references taken during set-up."""
    from perfbench import calibrate

    lat = sorted(r.seconds * 1e3 * calibrate.scale(r.reference) for r in requests)
    raw = statistics.median(r.seconds * 1e3 for r in requests)
    n = len(lat)
    who = resource.RUSAGE_CHILDREN if fresh_process else resource.RUSAGE_SELF
    values = {
        "maps_per_s": n / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[n - TAIL_BEYOND - 1],
        "setup_s": setup_s * calibrate.scale(statistics.median(setup_references)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    reference_ms = statistics.median(r.reference for r in requests) * 1e3
    note = (f"tail is p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} samples | "
            f"calibration reference median {reference_ms:.4g} ms | uncalibrated "
            f"latency_p50_ms={raw:.6g} setup_s={setup_s:.6g}")
    return values, note


def count_pass(server: Server, cases: list) -> tuple[list[Request], dict[str, int]]:
    """Exact call counts over a fixed set of requests."""
    from perfbench import trace

    counted = []
    counter = trace.CallCounter()
    for case in cases:
        req = server.request(case)
        if server.workload.fresh_process:
            result = server.work / f"count{server.served:05d}.json"
            server.serve(req, launcher=[sys.executable, str(CHILD), "count", str(result)])
            for name, k in _child_record(result, "counts", {}).items():
                counter.counts[name] += k
        else:
            with counter.installed():
                server.serve(req)
        counted.append(req)
    return counted, dict(counter.counts)


def run_traced(server: Server, cases: list, order: list, seconds: float,
               references: list[float], trace_path: Path) -> tuple[list[Request], dict]:
    from perfbench import calibrate, trace

    start = perf_counter()
    counted, counts = count_pass(server, cases[:2 * COUNT_PAIRS])
    tracer = trace.Tracer()
    plain: list[Request] = []
    traced: list[Request] = []
    while (perf_counter() - start < seconds
           or min(len(plain), len(traced)) < MIN_TRACED):
        references.append(calibrate.timed_reference())
        req = server.request(order[(len(plain) + len(traced)) % len(order)])
        if len(plain) <= len(traced):
            plain.append(server.serve(req))
            continue
        tracer.request = len(traced)
        if server.workload.fresh_process:
            result = server.work / f"spans{server.served:05d}.json"
            server.serve(req, launcher=[sys.executable, str(CHILD), "span", str(result)])
            offset = len(tracer.spans)
            for name, t0, t1, parent, _ in _child_record(result, "spans", []):
                tracer.spans.append([name, t0, t1, None if parent is None else parent + offset,
                                     tracer.request])
        else:
            with tracer.installed():
                server.serve(req, main=tracer.wrap(trace.ROOT_SPAN, server.main))
        traced.append(req)

    process_start = []
    if server.workload.fresh_process:
        roots = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == trace.ROOT_SPAN}
        process_start = [(req.seconds - roots[i]) * 1e3
                         for i, req in enumerate(traced) if i in roots]
    metrics = trace.layer_metrics(trace.request_times(tracer.spans), process_start)
    metrics.update(trace.count_metrics(counts))
    metrics["host.calibration_ms"] = 1e3 * statistics.median(references)
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in plain) - 1)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "request"],
        "spans": tracer.spans, "counts": counts}))
    return counted + plain + traced, metrics


def _child_record(path: Path, key: str, missing):
    try:
        return json.loads(path.read_text())[key]
    except (OSError, ValueError, KeyError):
        return missing


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def pin_to_one_processor() -> None:
    """Keep this process and its children on one processor, so that the
    calibration reference runs on the processor the requests ran on; the
    host's processors change speed independently of each other."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    pin_to_one_processor()
    start = perf_counter()
    import trisym.cli  # noqa: F401  (timed: imports are part of set-up)
    import_s = perf_counter() - start
    from perfbench import calibrate
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(name)
    if workload is None:
        print(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        references = [calibrate.timed_reference()]
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            start = perf_counter()
            cases = workload.setup(seed, work / "inputs")
            setups.append(perf_counter() - start)
            references.append(calibrate.timed_reference())
        setup_s = import_s + statistics.median(setups)
        server = Server(workload, work)
        order = random.Random(seed).sample(cases, len(cases))
        if traced:
            requests, metrics = run_traced(server, cases, order, seconds, references,
                                           WORK / "traces" / f"{name}-seed{seed}.json")
            units = {m: layer_unit(m) for m in metrics}
            failed = count_failures(workload, requests)
            for m, v in metrics.items():
                print(f"{name} {m} = {v:.6g} {units[m]}")
        else:
            requests = run_untraced(server, order, seconds, references[-1])
            metrics, note = end_to_end(requests, setup_s, references, workload.fresh_process)
            units = END_TO_END_UNITS
            failed = count_failures(workload, requests)
            row = [f"{m}={v:.6g} {units[m]}" for m, v in metrics.items()]
            row.append(f"failed_frac={failed / len(requests):.6g} ({failed}/{len(requests)})")
            print(f"{name}: " + " | ".join(row) + f" | {note}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(requests), "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process, one row each, then a summary line."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            summary["metrics"][f"{name}/{m}"] = v
    print(json.dumps(summary))
    return worst


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trisym" / "cli.py").is_file():
        print(f"error: the trisym sources are not under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
