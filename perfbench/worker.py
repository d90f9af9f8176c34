"""One benchmark process: set up a workload, run its timed loop, check every output.

``run.py`` starts this file; it is not meant to be run by hand.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --spawned T
    python perfbench/worker.py --workload W --seed N --spawned T --probe PACKAGE

After importing qecwb and generating the inputs it prints ``ready`` on
stdout, which ends the set-up interval that ``run.py`` times.  A probe
imports only PACKAGE (``qecwb`` or the reference ``qecwb_ref``) and exits
there.  Otherwise the worker runs whole rounds until ``--seconds`` have
passed, checks every program op against the oracle after its round
(outside the timed ops), and prints one JSON line.

Untraced runs pair every op of the program with the same op on the frozen
reference copy in ``reference/qecwb_ref``, alternating which goes first, so
both see the same machine; ``run.py`` divides the program's statistics by
the reference's.  Traced runs pair each round with a traced rerun of the
same inputs instead, and report the per-layer numbers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from spans import TRACE_MARK, Tracer, merge
from workloads import plan, round_stream

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")


def _run_cli(argv: list[str], module: str, traced: bool) -> dict:
    """One subcommand in a fresh interpreter; stderr is folded into stdout."""
    cmd = [sys.executable, CLI_CHILD] + argv if traced else [sys.executable, "-m", module] + argv
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    with proc.stdout:
        stdout = proc.stdout.read()
    # wait4 rather than wait: it also returns the child's peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    lines = stdout.splitlines(keepends=True)
    out = {"argv": argv, "returncode": proc.returncode, "rss_kb": usage.ru_maxrss}
    if lines and lines[-1].startswith(TRACE_MARK):
        trace = json.loads(lines.pop()[len(TRACE_MARK):])
        main_calls, main_busy, main_self = trace["summary"]["spans"].get("cli.main", [0, 0.0, 0.0])
        out["summary"] = trace["summary"]
        out["startup"] = trace["ready"] - t0
        out["cli_self"] = (wall - out["startup"]) - (main_busy - main_self)
    out["stdout"] = "".join(lines)
    return out


def _ops(workload: str, pkg, rnd: dict, traced: bool = False) -> list:
    """The round's ops as (name, callable) pairs, run against package ``pkg``."""
    if workload == "cli-session":
        module = pkg.__name__ + ".cli"
        return [("subcommand", functools.partial(_run_cli, argv, module, traced)) for argv in rnd["argvs"]]
    return plan(workload, pkg, rnd)


def _timed(name: str, fn) -> dict:
    t0 = time.perf_counter()
    try:
        out, error = fn(), None
    except Exception as exc:  # a failing op is counted, and the loop goes on
        out, error = None, "%s: %s" % (type(exc).__name__, exc)
    return {"latency": time.perf_counter() - t0, "name": name, "out": out, "error": error}


def check(workload: str, op: dict) -> list[str]:
    """Oracle verdict for one recorded op: an empty list means correct."""
    import oracle  # imported late so that set-up does not include it

    if op["error"] is not None:
        return [op["error"]]
    if workload == "cli-session":
        out = op["out"]
        return oracle.check_cli(out["argv"], out["returncode"], out["stdout"])
    return oracle.CHECKS[workload](op["out"])


class Tally:
    """Oracle verdicts of the ops run so far; outputs are dropped once checked,
    so the benchmark's memory does not grow with the number of ops."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ops: list[dict]) -> None:
        for op in ops:
            errs = check(self.workload, op)
            self.attempted += 1
            self.failed += bool(errs)
            self.failures += errs[: max(0, 20 - len(self.failures))]


def layer_metrics(summary: dict, ops: int, startups: list, cli_self: float, overhead: float) -> dict:
    """Per-layer numbers of a traced run, per op where they are totals (units in BENCHMARK.json)."""
    spans = summary["spans"]
    counters = summary["counters"]

    def get(name: str, field: int) -> float:
        return spans.get(name, [0, 0.0, 0.0])[field]

    per_op = lambda x: x / ops
    enlarge_calls = get("channels.enlarge", 0)
    kl_calls = get("conditions.kl_gram", 0)
    m = {
        "channels.enlarge.calls": per_op(enlarge_calls),
        "channels.enlarge.busy_s": per_op(get("channels.enlarge", 1)),
        "channels.enlarge.distinct_ratio":
            counters["enlarge.distinct"] / enlarge_calls if enlarge_calls else 0.0,
        "fidelity.entanglement_fidelity.calls": per_op(get("fidelity.entanglement_fidelity", 0)),
        "fidelity.entanglement_fidelity.busy_s": per_op(get("fidelity.entanglement_fidelity", 1)),
        "fidelity.terms": per_op(counters["fidelity.terms"]),
        "fidelity.threshold_analysis.self_s": per_op(get("fidelity.threshold_analysis", 2)),
        "recovery.build.calls": per_op(get("recovery.build", 0)),
        "recovery.build.busy_s": per_op(get("recovery.build", 1)),
        "recovery.completeness_defect.calls": per_op(get("recovery.completeness_defect", 0)),
        "recovery.polar_decompose.busy_s": per_op(get("recovery.polar_decompose", 1)),
        "recovery.residue.busy_s": per_op(get("recovery.residue", 1)),
        "linalg.psd_sqrt.calls": per_op(get("linalg.psd_sqrt", 0)),
        "linalg.hermitian_eig.calls": per_op(get("linalg.hermitian_eig", 0)),
        "conditions.kl_gram.calls": per_op(kl_calls),
        "conditions.kl_gram.busy_s": per_op(get("conditions.kl_gram", 1)),
        "conditions.blocks": counters["conditions.blocks"] / kl_calls if kl_calls else 0.0,
        "conditions.classify_pair.self_s": per_op(get("conditions.classify_pair", 2)),
        "codes.permutation_equivalent.busy_s": per_op(get("codes.permutation_equivalent", 1)),
        "fletcher.closed_form_optimum.calls": per_op(get("fletcher.closed_form_optimum", 0)),
        "fletcher.numeric_optimum.busy_s": per_op(get("fletcher.numeric_optimum", 1)),
        "cli.self_s": per_op(cli_self),
        "process.startup_s": statistics.median(startups),
        "trace.overhead_ratio": overhead,
    }
    for layer, n in summary["errors"].items():
        m[layer + ".errors"] = n
    return m


def _provenance(q) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "qecwb_version": q.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _import(package: str, workload: str):
    pkg = importlib.import_module(package)
    if workload == "cli-session":
        importlib.import_module(package + ".cli")  # what every subcommand imports
    return pkg


def _paired(args, q, qref, stream, rnd, tally: Tally) -> tuple[list, list, int, int]:
    """Untraced loop: each program op next to the same op on the reference.

    Returns the program's and the reference's op latencies, the rounds run
    and the peak RSS in KiB of the benchmark process or, for cli-session, of
    the largest program subcommand.
    """
    program, reference = [], []
    peak_kb = 0
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        done = []
        for i, (p_op, r_op) in enumerate(zip(_ops(args.workload, q, rnd), _ops(args.workload, qref, rnd))):
            if (i + rounds) % 2 == 0:
                p, r = _timed(*p_op), _timed(*r_op)
            else:
                r, p = _timed(*r_op), _timed(*p_op)
            program.append(p["latency"])
            reference.append(r["latency"])
            if args.workload == "cli-session" and p["out"]:
                peak_kb = max(peak_kb, p["out"]["rss_kb"])
            done.append(p)
        tally.check(done)
        rounds += 1
        if time.perf_counter() >= deadline:
            if args.workload != "cli-session":
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return program, reference, rounds, peak_kb
        rnd = next(stream)


def _traced(args, q, tracer, stream, rnd, tally: Tally) -> tuple[int, list, float, int]:
    """Traced loop: each round, then a traced rerun of it (order alternating).

    Returns the number of traced ops, the traced subcommands' outputs
    (cli-session), the tracing overhead and the rounds run.
    """
    traced_ops, cli_outs = 0, []
    plain_s = traced_s = 0.0
    rounds = 0
    in_process = args.workload != "cli-session"
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in (False, True) if rounds % 2 == 0 else (True, False):
            if traced and in_process:
                tracer.install()
            t0 = time.perf_counter()
            done = []
            for name, fn in _ops(args.workload, q, rnd, traced):
                tracer.op = tally.attempted + len(done)
                done.append(_timed(name, fn))
            if traced:
                traced_s += time.perf_counter() - t0
                traced_ops += len(done)
                if in_process:
                    tracer.uninstall()
                    tracer.end_scope()
                else:
                    cli_outs += [op["out"] for op in done if op["out"] and "summary" in op["out"]]
            else:
                plain_s += time.perf_counter() - t0
            tally.check(done)
        rounds += 1
        if time.perf_counter() >= deadline:
            return traced_ops, cli_outs, traced_s / plain_s - 1.0, rounds
        rnd = next(stream)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--probe", choices=("qecwb", "qecwb_ref"), default=None)
    args = parser.parse_args()

    q = _import(args.probe or "qecwb", args.workload)
    t_imported = time.monotonic()
    stream = round_stream(args.workload, args.seed)
    first = next(stream)
    print("ready", flush=True)
    if args.probe:
        return 0

    qref = _import("qecwb_ref", args.workload)
    if args.workload != "cli-session":
        # one untimed round fills numpy's and the interpreter's lazy state
        for pkg in (q, qref):
            for _, fn in _ops(args.workload, pkg, first):
                fn()
    rnd = next(stream)

    result = {"provenance": _provenance(q)}
    tally = Tally(args.workload)
    if args.trace:
        tracer = Tracer()
        traced_ops, cli_outs, overhead, rounds = _traced(args, q, tracer, stream, rnd, tally)
        if args.workload == "cli-session":
            summary = merge([out["summary"] for out in cli_outs])
            startups = [out["startup"] for out in cli_outs]
            cli_self = sum(out["cli_self"] for out in cli_outs)
        else:
            summary = tracer.summary()
            startups = [t_imported - args.spawned]
            cli_self = 0.0
        result["layers"] = layer_metrics(summary, traced_ops, startups, cli_self, overhead)
        result["spans"] = summary["spans"]
    else:
        program, reference, rounds, peak_kb = _paired(args, q, qref, stream, rnd, tally)
        result.update({
            "latencies_s": program,
            "reference_latencies_s": reference,
            "peak_rss_mb": peak_kb / 1024.0,
        })
    result.update({"attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures, "rounds": rounds})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
