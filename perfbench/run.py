"""qecwb benchmark: one workload, its end-to-end metrics or its per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload damping-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 25 --trace 1 --out report.json

Workloads: damping-sweep, bitflip-threshold, code-search (in-process) and
cli-session (one interpreter per subcommand); see perfbench/README.md.
``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer metrics of a traced run.  Every op is checked
against the oracle; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark runs qecwb from ``src/`` of the current directory, with
BLAS/OpenMP pinned to one thread.  Every untraced timing is taken beside
the same work on the frozen copy in ``reference/qecwb_ref`` and reported as
program / reference x ``reference/nominal.json``, which cancels the drift
of a shared machine's speed (README.md).  Set-up is timed ``SETUP_PROBES``
times per package in fresh interpreters and reported as a median.  Exit
status 2 means the current directory is not a qecwb checkout; 3 means a
benchmark process failed or overran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_PROBES = 6  # per package
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above its rank.

    Returns (percentile, value, samples beyond); nearest-rank definition.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def _raw(latencies: list[float], setup_samples: list[float]) -> tuple[dict, tuple]:
    pct, tail, beyond = tail_percentile(latencies)
    stats = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
    }
    return stats, (pct, beyond)


def end_to_end(result: dict, setups: dict, nominal: dict) -> tuple[dict, dict]:
    """End-to-end metric values and the details printed beside them.

    Each statistic of the program is scaled by nominal / reference, where
    reference is the same statistic of the frozen reference copy, measured
    op by op beside the program in the same run.
    """
    lat = result["latencies_s"]
    program, (pct, beyond) = _raw(lat, setups["qecwb"])
    reference, _ = _raw(result["reference_latencies_s"], setups["qecwb_ref"])
    values = {name: program[name] * nominal[name] / reference[name] for name in program}
    values["peak_rss_mb"] = result["peak_rss_mb"]
    details = {
        name: "program %.6g, reference %.6g, nominal %.6g" % (program[name], reference[name], nominal[name])
        for name in program
    }
    details["setup_s"] += "; medians of %d set-ups each" % len(setups["qecwb"])
    details["throughput_ops_s"] += "; %d ops, %d rounds" % (len(lat), result["rounds"])
    details["op_tail_ms"] += "; p%g, %d samples beyond, n=%d" % (pct, beyond, len(lat))
    return values, details


def _git_commit(root: str) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "qecwb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _run_child(cmd: list[str], env: dict, deadline: float) -> tuple[float, bytes]:
    """Run a worker; return (seconds from spawn to its 'ready' line, all stdout)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE, env=env, bufsize=0)
    out, ready = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError("benchmark process overran the time limit", 3)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and b"\n" in out:
                ready = time.monotonic() - spawned
        status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if status != 0 or ready is None or not out.startswith(b"ready\n"):
        raise BenchError("benchmark process exited %s" % status, 3)
    return ready, out


def run(args: argparse.Namespace) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(src, "qecwb", "__init__.py")) and os.path.isfile(bench_path)):
        raise BenchError("run from the root of a qecwb checkout (src/qecwb and BENCHMARK.json)", 2)
    with open(bench_path) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, REFERENCE_DIR, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    deadline = time.monotonic() + TIME_LIMIT_S
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]

    setups = {"qecwb": [], "qecwb_ref": []}
    if not args.trace:
        for i in range(2 * SETUP_PROBES):
            package = ("qecwb", "qecwb_ref")[i % 2]
            setups[package].append(_run_child(base + ["--probe", package], env, deadline)[0])
    _, out = _run_child(base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], env, deadline)
    result = json.loads(out.decode().strip().splitlines()[-1])

    if args.trace:
        values, details = result["layers"], {}
    else:
        with open(os.path.join(REFERENCE_DIR, "nominal.json")) as fh:
            nominal = json.load(fh)[args.workload]
        values, details = end_to_end(result, setups, nominal)
        details["peak_rss_mb"] = "largest subcommand" if args.workload == "cli-session" else "benchmark process"
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("metrics not produced: %s" % ", ".join(missing), 3)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    provenance = dict(result["provenance"])
    provenance.update({
        "commit": _git_commit(root),
        "src_sha256": _source_digest(src),
        "argv": sys.argv,
        "seed": args.seed,
    })
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "details": details,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "spans": result.get("spans"),
        "setup_samples_s": setups,
        "provenance": provenance,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qecwb benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return exc.status

    print("workload %s  seed %d  seconds %g  trace %d"
          % (report["workload"], report["seed"], report["seconds"], report["trace"]))
    for name, m in report["metrics"].items():
        note = report["details"].get(name)
        print("  %-40s %14.6g %-9s%s" % (name, m["value"], m["unit"], "  (%s)" % note if note else ""))
    print("  %-40s %14.6g %-9s  (%d of %d ops failed the oracle or exited nonzero)"
          % ("fail_ratio", report["fail_ratio"], "ratio", report["failed"], report["attempted"]))
    for failure in report["failures"]:
        print("  failure: %s" % failure)
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
