"""Tests of the benchmark itself: oracle negative controls, seeding, tracing.

    python3 perfbench/selftest.py        (from the repository root)

Kept out of the repository's pytest suite (the file name does not match
``test_*.py``) so the tier-1 tests do not change; it takes a few seconds.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
sys.path[:0] = [SRC, REFERENCE]
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, REFERENCE, os.environ.get("PYTHONPATH")) if p)

import qecwb as q  # noqa: E402
import qecwb.cli  # noqa: E402,F401
import qecwb_ref  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SEARCH_RANGES, plan, round_stream  # noqa: E402


def _ops(workload: str, seed: int, pkg=q) -> list[dict]:
    rnd = next(round_stream(workload, seed))
    return [{"name": name, "out": fn(), "error": None} for name, fn in plan(workload, pkg, rnd)]


def _failed(workload: str, ops: list[dict]) -> int:
    tally = worker.Tally(workload)
    tally.check(ops)
    return tally.failed


class OracleNegativeControl(unittest.TestCase):
    def test_perturbed_fidelity_is_counted(self):
        ops = _ops("damping-sweep", 1)
        self.assertEqual(_failed("damping-sweep", ops), 0)
        ops[3]["out"]["fidelity"]["cp"] += 1e-9
        self.assertEqual(_failed("damping-sweep", ops), 1)

    def test_perturbed_cli_value_and_exit_code_are_counted(self):
        argv = ["bitflip", "--grid", "0.1,0.6", "--format", "csv"]
        out = worker._run_cli(argv, "qecwb.cli", traced=False)
        good = {"out": out, "error": None}
        self.assertEqual(worker.check("cli-session", good), [])
        lines = out["stdout"].splitlines()
        row = lines[1].split(",")
        row[1] = repr(float(row[1]) + 1e-9)
        lines[1] = ",".join(row)
        perturbed = {"out": dict(out, stdout="\n".join(lines) + "\n"), "error": None}
        exited = {"out": dict(out, returncode=1), "error": None}
        ops = [good, perturbed, exited, good]
        tally = worker.Tally("cli-session")
        tally.check(ops)
        self.assertEqual(tally.failed / tally.attempted, 0.5)
        self.assertTrue(any("exited 1" in m for m in tally.failures))


class Seeding(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("damping-sweep", "bitflip-threshold", "code-search", "cli-session"):
            a = list(itertools.islice(round_stream(workload, 7), 5))
            b = list(itertools.islice(round_stream(workload, 7), 5))
            c = list(itertools.islice(round_stream(workload, 8), 5))
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_search_verdicts_are_seed_independent_on_the_ranges(self):
        rng = random.Random(0)
        triples = list(itertools.product(*SEARCH_RANGES))
        triples += [tuple(rng.uniform(lo, hi) for lo, hi in SEARCH_RANGES) for _ in range(4)]
        pairs = q.enumerate_pairs()
        for gammas in triples:
            for pair in pairs:
                r = q.classify_pair(pair, gammas)
                out = {"pair": r.index_pair, "good": r.good, "witness": r.witness}
                self.assertEqual(oracle.check_search(out), [], gammas)

    def test_reference_copy_does_the_same_work(self):
        for workload in ("damping-sweep", "bitflip-threshold", "code-search"):
            self.assertEqual(_failed(workload, _ops(workload, 3, qecwb_ref)), 0, workload)

    def test_damping_fits_hold_for_many_seeds(self):
        for seed in range(10):
            ops = _ops("damping-sweep", 100 + seed)
            self.assertIn("fits", ops[-1]["out"])
            self.assertEqual(_failed("damping-sweep", ops), 0, seed)


class Tracing(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores(self):
        original = q.channels.enlarge
        tracer = Tracer()
        tracer.install()
        try:
            for module in (q, q.channels, q.conditions, q.cli):
                self.assertIsNot(module.enlarge, original)
            q.conditions.weight_le1_ad_errors(0.01)
            q.cli.main(["enumerate", "--out", os.devnull])
        finally:
            tracer.uninstall()
        for module in (q, q.channels, q.conditions, q.cli):
            self.assertIs(module.enlarge, original)
        summary = tracer.summary()["spans"]
        self.assertEqual(summary["channels.enlarge"][0], 1 + 28 * 3)
        main_calls, main_busy, main_self = summary["cli.main"]
        self.assertEqual(main_calls, 1)
        self.assertLess(main_self, main_busy)

    def test_self_time_and_errors(self):
        tracer = Tracer()
        tracer.spans[:] = [
            ["conditions.classify_pair", 0.0, 10.0, -1, 0, True],
            ["conditions.kl_gram", 1.0, 4.0, 0, 0, False],
            ["channels.enlarge", 5.0, 6.0, 0, 0, True],
        ]
        s = tracer.summary()
        self.assertEqual(s["spans"]["conditions.classify_pair"], [1, 10.0, 6.0])
        self.assertEqual(s["errors"]["channels"], 1)
        self.assertEqual(s["errors"]["conditions"], 1)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        layers = worker.layer_metrics(Tracer().summary(), 1, [0.1], 0.0, 0.0)
        self.assertEqual(sorted(layers), sorted(m["name"] for m in bench["per_layer"]))
        with open(os.path.join(REFERENCE, "nominal.json")) as fh:
            nominal = json.load(fh)
        self.assertEqual(sorted(nominal), sorted(w["name"] for w in bench["workloads"]))
        result = {"latencies_s": [0.002] * 20, "reference_latencies_s": [0.001] * 20,
                  "peak_rss_mb": 30.0, "rounds": 1}
        setups = {"qecwb": [0.2], "qecwb_ref": [0.1]}
        values, _ = run.end_to_end(result, setups, nominal["code-search"])
        self.assertEqual(sorted(values), sorted(m["name"] for m in bench["end_to_end"]))
        self.assertAlmostEqual(values["op_p50_ms"], 2 * nominal["code-search"]["op_p50_ms"])
        self.assertAlmostEqual(values["throughput_ops_s"], 0.5 * nominal["code-search"]["throughput_ops_s"])


class Tail(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(2000)))[0], 99.0)
        pct, value, beyond = run.tail_percentile(list(range(60)))
        self.assertEqual((pct, beyond), (75.0, 15))
        self.assertEqual(run.tail_percentile(list(range(12)))[0], 50.0)


if __name__ == "__main__":
    unittest.main()
