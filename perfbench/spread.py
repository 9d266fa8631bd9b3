"""Run-to-run spread of the end-to-end metrics: runs the benchmark once per
seed on each workload and prints, per metric, the median, the quartiles and
the spread (distance between the quartiles as a share of the median).

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 [--workload NAME ...]

The last line of standard output is the JSON record of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": values}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()
    record = {}
    for name in args.workload or WORKLOADS:
        runs: dict[str, list[float]] = {}
        attempted = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{name} seed {seed}: failed checks", file=sys.stderr)
                return 1
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                runs.setdefault(metric, []).append(v["value"])
            print(proc.stdout.splitlines()[-2], flush=True)
        record[name] = {"seeds": args.seeds, "attempted": attempted,
                        "metrics": {m: summary(v) for m, v in runs.items()}}
        for metric, s in record[name]["metrics"].items():
            print(f"{name} {metric}: median {s['median']:.6g} "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g} spread {s['spread']:.3f}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
