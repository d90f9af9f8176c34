"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads damping-sweep,cli-session] [--trace 0] [--out summary.json]

For every workload and end-to-end metric it prints the median over the seeds
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound from BENCHMARK.json.  Runs are sequential, so they do not compete
for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.relpath(os.path.join(HERE, "run.py")), "--workload", workload,
                   "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode, proc.stderr), file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result, "report": lines[:-1]})
            print("%s seed %d: correct=%s %s" % (workload, seed, result["correct"], " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            row = {"median": statistics.median(values), "values": values}
            if len(values) >= 2 and "bound" in m:
                row["spread"] = spread(values)
                row["bound"] = m["bound"]
                if m["name"] != "setup_s":
                    worst = max(worst, row["spread"] / m["bound"])
            rows[m["name"]] = row
        summary["workloads"][workload] = {"runs": runs, "metrics": rows}
        for name, row in rows.items():
            extra = ""
            if "spread" in row:
                extra = "  spread %.4f (bound %.2f, %.2f of it)" % (row["spread"], row["bound"], row["spread"] / row["bound"])
            print("  %-40s median %-14.6g%s" % (name, row["median"], extra), flush=True)
    if not args.trace:
        print("largest spread/bound outside setup_s: %.3f" % worst)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
