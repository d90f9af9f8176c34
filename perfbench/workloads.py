"""Seeded inputs and the operations of the four benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs come from ``round_stream``,
which depends on the workload name and the seed alone.  A round is the
unit a researcher reruns at a desk (one sweep, one code search, one CLI
session); the amount of work in a round does not depend on the seed, only
the parameter values do.

``plan(workload, q, round)`` returns the round's operations as
``(name, callable)`` pairs; each callable returns the plain data the oracle
checks.  ``q`` is the imported ``qecwb`` package.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("damping-sweep", "bitflip-threshold", "code-search", "cli-session")

KINDS = ("qec", "cp", "fletcher")

DAMPING_POINTS = 8
DAMPING_RANGE = (1e-4, 1e-2)
BITFLIP_POINTS = 16
# Each gamma of a classification triple is drawn from its own range.  On
# these ranges the 28 verdicts and witnesses equal the reference table for
# every triple; selftest.py checks the corners and random interior triples.
SEARCH_RANGES = ((1e-4, 3e-4), (1e-3, 3e-3), (4e-3, 1e-2))
CLI_BITFLIP_POINTS = 8
CLI_AD_POINTS = 9
CLI_FIG1_POINTS = 41
CLI_RECOVERIES = ("qec", "cp", "fletcher", "fletcher-opt")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified(rng: random.Random, lo: float, hi: float, count: int, log: bool) -> list[float]:
    """One draw per equal-width stratum: sorted, distinct and spread over the range."""
    if log:
        edges = [math.log(lo) + (math.log(hi) - math.log(lo)) * i / count for i in range(count + 1)]
        return [math.exp(rng.uniform(edges[i], edges[i + 1])) for i in range(count)]
    edges = [lo + (hi - lo) * i / count for i in range(count + 1)]
    return [rng.uniform(edges[i], edges[i + 1]) for i in range(count)]


def _cli_round(rng: random.Random) -> list[list[str]]:
    ps = _stratified(rng, 0.0, 1.0, CLI_BITFLIP_POINTS, log=False)
    argvs = [["bitflip", "--grid", ",".join(repr(p) for p in ps), "--format", "csv"]]
    for kind in CLI_RECOVERIES:
        start = _log_uniform(rng, 1e-4, 3e-4)
        stop = _log_uniform(rng, 3e-3, 9e-3)
        grid = "log:%r:%r:%d" % (start, stop, CLI_AD_POINTS)
        argvs.append(["ad-fidelity", "--recovery", kind, "--grid", grid, "--format", "csv"])
    argvs.append(["enumerate", "--format", "csv"])
    gamma_max = _log_uniform(rng, 2e-3, 1e-2)
    argvs.append(
        ["fig1", "--gamma-max", repr(gamma_max), "--points", str(CLI_FIG1_POINTS), "--format", "csv"]
    )
    argvs.append(["appendix-a", "--gamma", repr(rng.uniform(0.02, 0.5)), "--format", "json"])
    argvs.append(["certify", "--format", "json"])
    return argvs


def round_stream(workload: str, seed: int):
    """The workload's rounds, an endless stream drawn from ``seed`` alone."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s/%d" % (workload, seed))
    while True:
        if workload == "damping-sweep":
            yield {"gammas": _stratified(rng, *DAMPING_RANGE, DAMPING_POINTS, log=True)}
        elif workload == "bitflip-threshold":
            yield {"ps": _stratified(rng, 0.0, 1.0, BITFLIP_POINTS, log=False)}
        elif workload == "code-search":
            yield {"gammas": [_log_uniform(rng, lo, hi) for lo, hi in SEARCH_RANGES]}
        else:
            yield {"argvs": _cli_round(rng)}


def _damping_ops(q, rnd: dict) -> list:
    """Mirrors ``fig1``/``ad-fidelity``: one op per gamma, fits after the last."""
    code = q.leung4()
    gammas = rnd["gammas"]
    values = {kind: {} for kind in KINDS}

    def recovery(kind: str, g: float):
        if kind == "qec":
            return q.standard_ad_recovery(g)
        if kind == "cp":
            return q.cp_recovery()
        opt = q.closed_form_optimum(g)
        return q.fletcher_recovery(opt.a_bar, opt.b_bar)

    def point(g: float, last: bool):
        def op():
            defect = q.enlarge(q.ad_single(g), 4).completeness_defect()
            fids = {}
            for kind in KINDS:
                rec = recovery(kind, g)
                channel = q.enlarge(q.ad_single(g), 4)
                fids[kind] = q.entanglement_fidelity(code, rec, channel).value
                values[kind][g] = fids[kind]
            closed = q.closed_form_optimum(g)
            numeric = q.numeric_optimum(g)
            out = {
                "gamma": g,
                "channel_defect": defect,
                "fidelity": fids,
                "closed": (closed.a_bar, closed.b_bar, closed.f_star),
                "numeric": (numeric.a_bar, numeric.b_bar, numeric.f_star),
            }
            if last:
                out["fits"] = {}
                for kind in KINDS:
                    fit = q.second_order_coeff(values[kind].__getitem__, gammas)
                    out["fits"][kind] = (fit.c0, fit.c1, fit.c2, fit.residual)
            return out

        return op

    return [("point", point(g, i == len(gammas) - 1)) for i, g in enumerate(gammas)]


def _bitflip_ops(q, rnd: dict) -> list:
    """Mirrors ``bitflip``: one op per p, then the threshold analysis."""
    code = q.repetition3()
    ps = rnd["ps"]
    state = {}

    def point(p: float, first: bool):
        def op():
            if first:
                state["recovery"] = q.repetition_recovery()
                state["recovery_defect"] = state["recovery"].completeness_defect()
            channel = q.enlarge(q.bitflip_single(p), 3)
            f = q.entanglement_fidelity(code, state["recovery"], channel).value
            return {
                "p": p,
                "channel_defect": channel.completeness_defect(),
                "recovery_defect": state["recovery_defect"],
                "f_code": f,
                "f_baseline": q.baseline_no_qec(q.bitflip_single(p)),
            }

        return op

    def threshold():
        recovery = state["recovery"]

        def coded(p: float) -> float:
            return q.entanglement_fidelity(code, recovery, q.enlarge(q.bitflip_single(p), 3)).value

        def baseline(p: float) -> float:
            return q.baseline_no_qec(q.bitflip_single(p))

        report = q.threshold_analysis(coded, baseline, grid=ps)
        return {
            "grid": (ps[0], ps[-1]),
            "useful": report.coding_useful_range,
            "threshold": report.failure_threshold,
        }

    ops = [("point", point(p, i == 0)) for i, p in enumerate(ps)]
    ops.append(("threshold", threshold))
    return ops


def _search_ops(q, rnd: dict) -> list:
    """Mirrors ``enumerate``: 28 classifications, then the good codes' certificates."""
    gammas = tuple(rnd["gammas"])
    state = {}

    def classify(i: int):
        def op():
            if i == 0:
                state["pairs"] = q.enumerate_pairs()
                state["good"] = []
            pair = state["pairs"][i]
            r = q.classify_pair(pair, gammas)
            if r.good:
                state["good"].append(pair)
            return {"pair": r.index_pair, "good": r.good, "witness": r.witness, "slope": r.slope}

        return op

    def certify_codes():
        good = state["good"]
        codes = {}
        for pair in good:
            code = pair.as_code()
            verdict = q.exact_correctable(code, q.weight_le1_ad_errors(gammas[1]))
            order = q.violation_order(lambda g, c=code: (c, q.weight_le1_ad_errors(g)), gammas)
            codes[pair.index_pair] = {
                "exact": verdict.exact,
                "violation": verdict.violation,
                "order_exact": order.exact,
                "slope": order.slope,
                "first_order": order.first_order_correctable,
            }
        perms = []
        for a in range(len(good)):
            for b in range(a + 1, len(good)):
                perm = q.permutation_equivalent(good[a].as_code(), good[b].as_code())
                perms.append((good[a].index_pair, good[b].index_pair, perm))
        return {"gamma": gammas[1], "codes": codes, "perms": perms}

    ops = [("classify", classify(i)) for i in range(28)]
    ops.append(("codes", certify_codes))
    return ops


def plan(workload: str, q, rnd: dict) -> list:
    """The operations of one in-process round, in order."""
    if workload == "damping-sweep":
        return _damping_ops(q, rnd)
    if workload == "bitflip-threshold":
        return _bitflip_ops(q, rnd)
    if workload == "code-search":
        return _search_ops(q, rnd)
    raise ValueError("%s does not run in-process" % workload)
