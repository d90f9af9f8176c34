"""Correctness oracle for every benchmark operation, run outside the timed loop.

The fidelity evaluator here is the benchmark's own:

    F = 1/4 * sum_{k,l} |<0_L| R_k A_l |0_L> + <1_L| R_k A_l |1_L>|**2,

computed from codewords and Kraus products built in this file, not from
``qecwb.channels`` or ``qecwb.fidelity``.  Recovery operators still come
from ``qecwb.recovery``: they are the paper's definitions, and the oracle
checks what the program computes with them.  Bit-flip values are held to
their closed forms, the code search to the paper's 3 good / 25 bad table
with witnesses, and the numeric Fletcher optimum to the closed form.

Every ``check_*`` function returns a list of mismatch messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np

import qecwb as q

TOL = 1e-12  # ROADMAP oracle tolerance for values that have an exact reference
FIT_TOL = 1e-3  # second_order_coeff documents c2 to ~1e-3 on grids in (0, 1e-2]
SLOPE_TOL = 0.1
THRESHOLD_TOL = 1e-9  # bisection stops at 1e-10

SERIES_C2 = {"qec": -2.0, "cp": -1.75, "fletcher": -1.5, "fletcher-opt": -1.5}

# Classification of the 28 self-complementary pairs: the three good pairs
# and the non-correctable witness of every bad one.
GOOD_PAIRS = {(1, 6), (1, 7), (1, 8)}
BAD_PAIR_WITNESSES = {
    (1, 2): ("0000", "1000"), (1, 3): ("0000", "0100"), (1, 4): ("0000", "0010"),
    (1, 5): ("0000", "0001"), (2, 3): ("1000", "0100"), (2, 4): ("1000", "0010"),
    (2, 5): ("1000", "0001"), (2, 6): ("0000", "0100"), (2, 7): ("0000", "0010"),
    (2, 8): ("0000", "0001"), (3, 4): ("0100", "0010"), (3, 5): ("0100", "0001"),
    (3, 6): ("0000", "1000"), (3, 7): ("0000", "0001"), (3, 8): ("0000", "0010"),
    (4, 5): ("0010", "0001"), (4, 6): ("0000", "0001"), (4, 7): ("0000", "1000"),
    (4, 8): ("0000", "0100"), (5, 6): ("0000", "0010"), (5, 7): ("0000", "0100"),
    (5, 8): ("0000", "1000"), (6, 7): ("0100", "0010"), (6, 8): ("0100", "0001"),
    (7, 8): ("0010", "0001"),
}
SELF_COMPLEMENTARY = ("0000", "1000", "0100", "0010", "0001", "1100", "1010", "1001")


def _ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def _sc(bits: str) -> np.ndarray:
    comp = "".join("1" if c == "0" else "0" for c in bits)
    return (_ket(bits) + _ket(comp)) / math.sqrt(2.0)


LEUNG = (_sc("0000"), _sc("0011"))
REPETITION = (_ket("000"), _ket("111"))


def _products(a0: np.ndarray, a1: np.ndarray, n: int) -> np.ndarray:
    """All 2**n tensor products; entry int(label, 2) is the product for label."""
    single = np.stack([a0, a1])
    out = single
    for _ in range(n - 1):
        k, d, _ = out.shape
        out = np.einsum("xab,ycd->xyacbd", out, single).reshape(2 * k, 2 * d, 2 * d)
    return out


def ad_kraus(gamma: float) -> np.ndarray:
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return _products(a0, a1, 4)


def bitflip_kraus(p: float) -> np.ndarray:
    a0 = math.sqrt(1.0 - p) * np.eye(2, dtype=complex)
    a1 = math.sqrt(p) * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return _products(a0, a1, 3)


def local_fidelity(codewords, recovery_ops, kraus_ops) -> float:
    """1/4 sum_{k,l} |<0|R_k A_l|0> + <1|R_k A_l|1>|**2 straight from the codewords."""
    v = np.stack(codewords, axis=1)
    left = np.einsum("ai,kab->kib", v.conj(), np.asarray(recovery_ops))
    right = np.einsum("lab,bi->lai", np.asarray(kraus_ops), v)
    traces = np.einsum("kib,lbi->kl", left, right)
    return float(0.25 * np.sum(np.abs(traces) ** 2))


def _recovery_ops(rec) -> list:
    ops = rec.operators()
    if rec.leftover is not None:
        ops.append(rec.leftover)
    return ops


def fletcher_closed_params(gamma: float) -> tuple[float, float]:
    c2 = (1.0 - gamma) ** 2
    scale = math.sqrt(1.0 + c2 * c2)
    return 1.0 / scale, c2 / scale


def damping_fidelity(kind: str, gamma: float, kraus: list) -> float:
    """Local evaluation of a damping recovery on the four-qubit code."""
    if kind == "qec":
        rec = q.standard_ad_recovery(gamma)
    elif kind == "cp":
        rec = q.cp_recovery()
    else:
        rec = q.fletcher_recovery(*fletcher_closed_params(gamma))
    return local_fidelity(LEUNG, _recovery_ops(rec), kraus)


@lru_cache(maxsize=1)
def _repetition_ops() -> np.ndarray:
    return np.asarray(_recovery_ops(q.repetition_recovery()))


def bitflip_fidelity(p: float) -> float:
    return local_fidelity(REPETITION, _repetition_ops(), bitflip_kraus(p))


def _close(what: str, got, want, tol: float = TOL) -> list[str]:
    if got is None or not abs(got - want) <= tol:
        return ["%s: got %r, expected %r (tol %g)" % (what, got, want, tol)]
    return []


# ---- in-process operations ------------------------------------------------


def check_damping(out: dict) -> list[str]:
    g = out["gamma"]
    errs = []
    if not out["channel_defect"] <= 1e-12:
        errs.append("gamma=%r: channel completeness defect %g" % (g, out["channel_defect"]))
    kraus = ad_kraus(g)
    for kind in ("qec", "cp", "fletcher"):
        errs += _close("gamma=%r %s fidelity" % (g, kind), out["fidelity"][kind], damping_fidelity(kind, g, kraus))
    a_bar, b_bar = fletcher_closed_params(g)
    closed, numeric = out["closed"], out["numeric"]
    errs += _close("gamma=%r closed a_bar" % g, closed[0], a_bar)
    errs += _close("gamma=%r closed b_bar" % g, closed[1], b_bar)
    errs += _close("gamma=%r closed f_star" % g, closed[2], out["fidelity"]["fletcher"])
    errs += _close("gamma=%r numeric f_star" % g, numeric[2], closed[2])
    errs += _close("gamma=%r numeric a_bar" % g, numeric[0], closed[0], 1e-8)
    errs += _close("gamma=%r numeric b_bar" % g, numeric[1], closed[1], 1e-8)
    for kind, fit in out.get("fits", {}).items():
        errs += _close("sweep fit %s c2" % kind, fit[2], SERIES_C2[kind], FIT_TOL)
    return errs


def check_bitflip(out: dict) -> list[str]:
    if "threshold" in out:
        errs = _close("threshold", out["threshold"], 0.5, THRESHOLD_TOL)
        if out["useful"] is None or tuple(out["useful"]) != tuple(out["grid"]):
            errs.append("useful range %r, expected the whole grid %r" % (out["useful"], out["grid"]))
        return errs
    p = out["p"]
    errs = []
    if not out["channel_defect"] <= 1e-12 or not out["recovery_defect"] <= 1e-10:
        errs.append("p=%r: completeness defects %g, %g" % (p, out["channel_defect"], out["recovery_defect"]))
    errs += _close("p=%r f_code closed form" % p, out["f_code"], 1 - 3 * p**2 + 2 * p**3)
    errs += _close("p=%r f_code local" % p, out["f_code"], bitflip_fidelity(p))
    errs += _close("p=%r f_baseline" % p, out["f_baseline"], (1 - p) ** 2)
    return errs


def _kl_violation(codewords, gamma: float) -> float:
    kraus = ad_kraus(gamma)
    errors = [kraus[int(label, 2)] for label in ("0000", "1000", "0100", "0010", "0001")]
    images = [(a @ codewords[0], a @ codewords[1]) for a in errors]
    worst = 0.0
    for i in range(len(errors)):
        for j in range(i, len(errors)):
            b = [[np.vdot(images[i][r], images[j][s]) for s in (0, 1)] for r in (0, 1)]
            worst = max(worst, abs(b[0][1]), abs(b[1][0]), abs(b[0][0] - b[1][1]))
    return float(worst)


def _projector(codewords) -> np.ndarray:
    return sum(np.outer(c, c.conj()) for c in codewords)


def _permute(perm, state: np.ndarray) -> np.ndarray:
    out = np.zeros_like(state)
    for b in range(state.size):
        bits = format(b, "04b")
        out[int("".join(bits[perm[j]] for j in range(4)), 2)] = state[b]
    return out


def _pair_codewords(pair) -> tuple:
    return _sc(SELF_COMPLEMENTARY[pair[0] - 1]), _sc(SELF_COMPLEMENTARY[pair[1] - 1])


def check_search(out: dict) -> list[str]:
    if "pair" in out:
        pair = tuple(out["pair"])
        want_good = pair in GOOD_PAIRS
        want_witness = None if want_good else BAD_PAIR_WITNESSES[pair]
        witness = None if out["witness"] is None else tuple(out["witness"])
        if out["good"] != want_good or witness != want_witness:
            return ["pair %r: good=%r witness=%r, expected good=%r witness=%r"
                    % (pair, out["good"], witness, want_good, want_witness)]
        return []
    errs = []
    if set(out["codes"]) != GOOD_PAIRS:
        errs.append("certified codes %r, expected %r" % (sorted(out["codes"]), sorted(GOOD_PAIRS)))
    for pair, c in out["codes"].items():
        if c["exact"] or c["order_exact"] or not c["first_order"]:
            errs.append("pair %r: exact=%r order_exact=%r first_order=%r"
                        % (pair, c["exact"], c["order_exact"], c["first_order"]))
        errs += _close("pair %r KL violation" % (pair,), c["violation"],
                       _kl_violation(_pair_codewords(pair), out["gamma"]))
        errs += _close("pair %r violation slope" % (pair,), c["slope"], 2.0, SLOPE_TOL)
    if len(out["perms"]) != 3:
        errs.append("%d equivalence checks, expected 3" % len(out["perms"]))
    for a, b, perm in out["perms"]:
        if perm is None:
            errs.append("pairs %r and %r reported inequivalent" % (a, b))
            continue
        moved = _projector([_permute(perm, c) for c in _pair_codewords(a)])
        if np.max(np.abs(moved - _projector(_pair_codewords(b)))) > TOL:
            errs.append("permutation %r does not map %r onto %r" % (perm, a, b))
    return errs


CHECKS = {
    "damping-sweep": check_damping,
    "bitflip-threshold": check_bitflip,
    "code-search": check_search,
}


# ---- CLI subcommands --------------------------------------------------------


def _csv_table(stdout: str) -> tuple[list[dict], dict]:
    body = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    footer = {}
    for line in stdout.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            footer[key] = value
    return list(csv.DictReader(io.StringIO("\n".join(body)))), footer


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_bitflip_cli(argv, stdout) -> list[str]:
    rows, footer = _csv_table(stdout)
    grid = [float(x) for x in _option(argv, "--grid").split(",")]
    errs = [] if len(rows) == len(grid) else ["%d rows for %d grid points" % (len(rows), len(grid))]
    for row, p in zip(rows, grid):
        f = float(row["f_code"])
        errs += _close("bitflip p", float(row["p"]), p, 0.0)
        errs += _close("bitflip p=%r f_code" % p, f, 1 - 3 * p**2 + 2 * p**3)
        errs += _close("bitflip p=%r f_baseline" % p, float(row["f_baseline"]), (1 - p) ** 2)
        errs += _close("bitflip p=%r p_failure" % p, float(row["p_failure"]), 1 - f)
        errs += _close("bitflip p=%r useful" % p, float(row["useful"]), 1.0, 0.0)
        errs += _close("bitflip p=%r below_threshold" % p, float(row["below_threshold"]),
                       float(3 * p**2 - 2 * p**3 <= p + 1e-12), 0.0)
    errs += _close("bitflip failure_threshold", float(footer.get("failure_threshold", "nan")), 0.5, THRESHOLD_TOL)
    if footer.get("coding_useful_range") != "[0, 1]":
        errs.append("bitflip coding_useful_range %r" % footer.get("coding_useful_range"))
    return errs


def _check_ad_cli(argv, stdout) -> list[str]:
    kind = _option(argv, "--recovery")
    _, start, stop, count = _option(argv, "--grid").split(":")
    grid = np.logspace(np.log10(float(start)), np.log10(float(stop)), int(count))
    rows, footer = _csv_table(stdout)
    errs = [] if len(rows) == len(grid) else ["%d rows for %d grid points" % (len(rows), len(grid))]
    for row, g in zip(rows, grid):
        errs += _close("ad-fidelity gamma", float(row["gamma"]), float(g), 0.0)
        errs += _close("ad-fidelity %s gamma=%r" % (kind, g), float(row["fidelity"]),
                       damping_fidelity(kind, g, ad_kraus(g)))
    errs += _close("ad-fidelity %s c2" % kind, float(footer.get("c2", "nan")), SERIES_C2[kind], FIT_TOL)
    return errs


def _check_enumerate_cli(argv, stdout) -> list[str]:
    rows, footer = _csv_table(stdout)
    errs = [] if len(rows) == 28 else ["%d pairs listed" % len(rows)]
    for row in rows:
        pair = (int(row["i"]), int(row["j"]))
        want_good = pair in GOOD_PAIRS
        want_witness = "-" if want_good else "+".join(BAD_PAIR_WITNESSES[pair])
        if row["good"] != str(want_good).lower() or row["witness"] != want_witness:
            errs.append("enumerate pair %r: %s %s" % (pair, row["good"], row["witness"]))
    if footer.get("good_pairs") != "3":
        errs.append("enumerate good_pairs %r" % footer.get("good_pairs"))
    return errs


def _check_fig1_cli(argv, stdout) -> list[str]:
    grid = np.linspace(0.0, float(_option(argv, "--gamma-max")), int(_option(argv, "--points")))
    rows, _ = _csv_table(stdout)
    errs = [] if len(rows) == len(grid) else ["%d rows for %d points" % (len(rows), len(grid))]
    for row, g in zip(rows, grid):
        errs += _close("fig1 gamma", float(row["gamma"]), float(g), 0.0)
        kraus = ad_kraus(g)
        for kind in ("qec", "cp", "fletcher"):
            errs += _close("fig1 %s_series gamma=%r" % (kind, g), float(row[kind + "_series"]),
                           1.0 + SERIES_C2[kind] * g**2)
            errs += _close("fig1 %s_exact gamma=%r" % (kind, g), float(row[kind + "_exact"]),
                           damping_fidelity(kind, g, kraus))
        errs += _close("fig1 baseline gamma=%r" % g, float(row["baseline"]),
                       0.25 * (1.0 + math.sqrt(1.0 - g)) ** 2)
    return errs


def _check_appendix_cli(argv, stdout) -> list[str]:
    data = json.loads(stdout)
    g = float(_option(argv, "--gamma"))
    c = 1.0 - g
    errs = _close("appendix-a gamma", data["gamma"], g, 0.0)
    want = sorted([c**2, (1.0 + c**4) / 2.0])
    if len(data["eigenvalues"]) != 2:
        return errs + ["appendix-a eigenvalues %r" % data["eigenvalues"]]
    for got, w in zip(data["eigenvalues"], want):
        errs += _close("appendix-a eigenvalue", got, w)
    u = np.array([[complex(re, im) for re, im in row] for row in data["u_matrix"]])
    errs += _close("appendix-a unitarity", float(np.max(np.abs(u.conj().T @ u - np.eye(4)))), 0.0)
    if data["residue_bound_ok"] is not True:
        errs.append("appendix-a residue bound failed")
    return errs


def _check_certify_cli(argv, stdout) -> list[str]:
    data = json.loads(stdout)
    failed = [c["name"] for c in data["checks"] if not c["pass"]]
    if failed or data["overall"] is not True:
        return ["certify failed: %r" % failed]
    return []


CLI_CHECKS = {
    "bitflip": _check_bitflip_cli,
    "ad-fidelity": _check_ad_cli,
    "enumerate": _check_enumerate_cli,
    "fig1": _check_fig1_cli,
    "appendix-a": _check_appendix_cli,
    "certify": _check_certify_cli,
}


def check_cli(argv: list[str], returncode: int, stdout: str) -> list[str]:
    if returncode != 0:
        return ["%s exited %d" % (argv[0], returncode)]
    try:
        return CLI_CHECKS[argv[0]](argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return ["%s output unreadable: %r" % (argv[0], exc)]
