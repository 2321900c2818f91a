"""Repeat bench/run.py over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric it reports the median and the
quartiles over the runs, and the spread: the distance between the first
and third quartile as a share of the median, the figure BENCHMARK.json's
bounds are compared against.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    for name in args.workloads.split(","):
        runs, longest = [], 0.0
        for seed in summary["seeds"]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            longest = max(longest, time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[-2])["environment"]
            env.pop("workload_seed")  # the summary lists its seeds
            summary["environment"] = env
            runs.append(json.loads(lines[-1]))
        metrics = {
            metric: summarise([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        summary["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "longest_run_s": longest,
            "metrics": metrics,
        }
        spreads = ", ".join(f"{m} {v['median']:.4g} ({v['spread']:.1%})" for m, v in metrics.items())
        print(f"{name}: correct={summary['workloads'][name]['all_correct']} "
              f"longest={longest:.1f}s {spreads}", file=sys.stderr)
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
