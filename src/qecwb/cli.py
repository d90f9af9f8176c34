"""Command-line front end.

Subcommands drive every analysis in the package and emit tables as CSV,
JSON, or plain text.  All output is deterministic: identical inputs produce
byte-identical CSV/JSON.  The environment variable ``QECWB_TOL`` overrides
the default 1e-10 verdict tolerance used by the internal certificates; it
must be a finite positive number.

Exit status 1 means a certificate failed; each failed one is named on
stderr as ``check failed: <name> (deviation <x>)``.  Bad input exits with
one ``error: ...`` line.

    qecwb bitflip [--grid 0:1:101] [--format csv] [--out table.csv]
    qecwb ad-fidelity --recovery qec|cp|fletcher|fletcher-opt [--grid log:1e-4:1e-2:9]
    qecwb enumerate
    qecwb fig1 [--gamma-max 1e-2] [--points 101]
    qecwb appendix-a [--gamma 0.1]      # needs (1-gamma)^2 > 1e-12
    qecwb certify
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import (
    ad_single,
    baseline_no_qec,
    bitflip_single,
    classify_pair,
    closed_form_optimum,
    cp_recovery,
    detection_probability,
    entanglement_fidelity,
    enumerate_pairs,
    enlarge,
    fletcher_recovery,
    leung4,
    numeric_optimum,
    phaseflip_single,
    repetition3,
    repetition_recovery,
    residue,
    polar_decompose,
    second_order_coeff,
    standard_ad_recovery,
    threshold_analysis,
)
from .fidelity import USEFUL_SLACK, sweep_grid
from .linalg import dagger, ket, restrict

DEFAULT_TOL = 1e-10
CHANNEL_TOL = 1e-12

Check = tuple[str, bool, float]  # (name, passed, deviation)
# header, table rows, footer lines, JSON object, checks
Report = tuple[list[str], list[list], list[str], dict, list[Check]]


def _tolerance() -> float:
    raw = os.environ.get("QECWB_TOL", repr(DEFAULT_TOL))
    try:
        tol = float(raw)
    except ValueError:
        tol = float("nan")
    if not 0.0 < tol < float("inf"):
        raise SystemExit("error: QECWB_TOL must be a finite positive number, got %r" % raw)
    return tol


def _num(x: float) -> str:
    return "%.17g" % float(x)


def _parse_grid(expr: Optional[str], default: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if expr is None:
        grid = default
    elif ":" in expr:
        parts = expr.split(":")
        log = parts[0] == "log" and len(parts) == 4
        if len(parts) != (4 if log else 3):
            raise SystemExit("error: grid must be a,b,c, start:stop:count or log:start:stop:count")
        start, stop, count = float(parts[-3]), float(parts[-2]), int(parts[-1])
        if log and not (start > 0 and stop > 0):
            raise SystemExit("error: log grid endpoints must be positive")
        # an infinite endpoint or an overflowing step gives non-finite values, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            if log:
                grid = np.logspace(np.log10(start), np.log10(stop), count)
            else:
                grid = np.linspace(start, stop, count)
    else:
        grid = [float(tok) for tok in expr.split(",")] if expr.strip() else []
    grid = sweep_grid(grid)  # its ValueError becomes main's "error:" line
    if grid[0] < lo or grid[-1] > hi:
        raise SystemExit("error: grid leaves the valid parameter domain [%g, %g]" % (lo, hi))
    return grid


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit("error: cannot write %s: %s" % (out, exc.strerror))


def _cell(x, fmt: str) -> str:
    if isinstance(x, str):
        return x
    return _num(x) if fmt == "csv" else "%.12g" % x


def _render(fmt: str, header: list[str], rows: list[list], footer: list[str], json_obj) -> str:
    """JSON as is; a table when there is a header; otherwise the footer lines verbatim."""
    if fmt == "json":
        return json.dumps(json_obj, indent=2) + "\n"
    if not header:
        lines = list(footer)
    elif fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_cell(x, fmt) for x in row) for row in rows]
        lines += ["# " + f for f in footer]
    else:
        widths = [max(len(h), 24) for h in header]
        table = [header] + [[_cell(x, fmt) for x in row] for row in rows]
        lines = ["  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() for cells in table]
        lines += footer
    return "\n".join(lines) + "\n"


def _complete(name: str, ops, tol: float) -> Check:
    """Completeness check of a channel or a recovery."""
    deviation = ops.completeness_defect()
    return (name, deviation <= tol, deviation)


def _trace_preserving(name: str, channel) -> Check:
    name = "%s %d-qubit trace preservation" % (name, channel.n_qubits)
    return _complete(name, channel, CHANNEL_TOL)


def _adapted_recovery(gamma: float):
    """The channel-adapted recovery at the closed-form optimum (a_bar, b_bar) for ``gamma``."""
    opt = closed_form_optimum(gamma)
    return fletcher_recovery(opt.a_bar, opt.b_bar)


def cmd_bitflip(args) -> Report:
    """Fidelity table over ``--grid``; threshold and useful range use 101 points on [0, 1]."""
    tol = _tolerance()
    grid = _parse_grid(args.grid, np.linspace(0.0, 1.0, 101), 0.0, 1.0)
    recovery = repetition_recovery()
    code = repetition3()
    checks = [_complete("repetition recovery completeness", recovery, tol)]

    points = {}  # p -> (channel, coded fidelity, baseline); the table and threshold scan share it

    def point(p: float) -> tuple:
        if p not in points:
            single = bitflip_single(p)
            channel = enlarge(single, 3)
            f = entanglement_fidelity(code, recovery, channel).value
            points[p] = channel, f, baseline_no_qec(single)
        return points[p]

    rows = []
    for p in grid:
        channel, f, b = point(p)
        checks.append(_trace_preserving("bitflip(p=%g)" % p, channel))
        rows.append(
            [p, f, b, 1.0 - f, float(f >= b - USEFUL_SLACK), float(1.0 - f <= p + 1e-12)]
        )
    report = threshold_analysis(lambda p: point(p)[1], lambda p: point(p)[2],
                                np.linspace(0.0, 1.0, 101))
    useful = report.coding_useful_range
    footer = [
        "failure_threshold = " + _num(report.failure_threshold),
        "coding_useful_range = "
        + ("none" if useful is None else "[%s, %s]" % (_num(useful[0]), _num(useful[1]))),
    ]
    header = ["p", "f_code", "f_baseline", "p_failure", "useful", "below_threshold"]
    json_obj = {
        "rows": [
            dict(zip(header, r[:4]), useful=bool(r[4]), below_threshold=bool(r[5])) for r in rows
        ],
        "failure_threshold": report.failure_threshold,
        "coding_useful_range": None if useful is None else list(useful),
    }
    return header, rows, footer, json_obj, checks


def cmd_ad_fidelity(args) -> Report:
    tol = _tolerance()
    grid = _parse_grid(args.grid, np.logspace(-4, -2, 9), 0.0, 1.0)
    kind = args.recovery
    code = leung4()
    checks = []
    rows = []
    optima = []
    for g in grid:
        channel = enlarge(ad_single(g), 4)
        checks.append(_trace_preserving("damping(gamma=%g)" % g, channel))
        if kind == "fletcher-opt":
            optima.append(closed_form_optimum(g))
            f = optima[-1].f_star
        else:
            if kind == "qec":
                rec = standard_ad_recovery(g)
            elif kind == "cp":
                rec = cp_recovery()
            else:
                rec = _adapted_recovery(g)
            checks.append(_complete("%s recovery (gamma=%g) completeness" % (kind, g), rec, tol))
            f = entanglement_fidelity(code, rec, channel).value
        rows.append([g, f])
    fit = None
    if len(grid) >= 3 and grid[0] > 0 and grid[-1] <= 1e-2:
        fit = second_order_coeff(dict(zip(grid, (f for _, f in rows))).__getitem__, grid)
    footer = []
    if fit is not None:
        footer = ["c%d = %s" % (k, _num(c)) for k, c in enumerate((fit.c0, fit.c1, fit.c2))]
    json_obj = {
        "recovery": kind,
        "rows": [{"gamma": r[0], "fidelity": r[1]} for r in rows],
        "fit": None
        if fit is None
        else {"c0": fit.c0, "c1": fit.c1, "c2": fit.c2, "residual": fit.residual},
    }
    if kind == "fletcher-opt":
        json_obj["optima"] = [
            {"gamma": g, "a_bar": c.a_bar, "b_bar": c.b_bar, "f_star_closed": c.f_star,
             "f_star_numeric": n.f_star, "delta": abs(c.f_star - n.f_star)}
            for g, c, n in zip(grid, optima, map(numeric_optimum, grid))
        ]
    return ["gamma", "fidelity"], rows, footer, json_obj, checks


def cmd_enumerate(args) -> Report:
    results = [classify_pair(p) for p in enumerate_pairs()]
    good = [r for r in results if r.good]
    rows = [
        [
            r.index_pair[0],
            r.index_pair[1],
            str(r.good).lower(),
            "-" if r.witness is None else "+".join(r.witness),
            "" if r.slope is None else r.slope,
        ]
        for r in results
    ]
    footer = [
        "good_pairs = %d" % len(good),
        "good_set = " + " ".join("(%d,%d)" % r.index_pair for r in good),
    ]
    json_obj = {
        "pairs": [
            {
                "indices": list(r.index_pair),
                "good": r.good,
                "witness": None if r.witness is None else list(r.witness),
                "slope": r.slope,
            }
            for r in results
        ],
        "good_count": len(good),
    }
    checks = [("number of good pairs is 3", len(good) == 3, float(abs(len(good) - 3)))]
    return ["i", "j", "good", "witness", "slope"], rows, footer, json_obj, checks


def cmd_fig1(args) -> Report:
    if args.points < 1:
        raise SystemExit("error: --points must be at least 1")
    if not 0.0 <= args.gamma_max < 1.0:
        raise SystemExit("error: --gamma-max must lie in [0, 1)")
    tol = _tolerance()
    grid = np.linspace(0.0, args.gamma_max, args.points)
    code = leung4()
    cp = cp_recovery()
    checks = [_complete("code-projected recovery completeness", cp, tol)]
    rows = []
    for i, g in enumerate(grid):
        channel = enlarge(ad_single(g), 4)
        checks.append(_trace_preserving("damping(gamma=%g)" % g, channel))
        qec = standard_ad_recovery(g)
        fletcher = _adapted_recovery(g)
        if i in (0, len(grid) - 1):
            for kind, rec in (("qec", qec), ("fletcher", fletcher)):
                checks.append(_complete("%s recovery (gamma=%g) completeness" % (kind, g), rec, tol))
        rows.append(
            [
                g,
                1.0 - 2.0 * g**2,
                1.0 - 1.75 * g**2,
                1.0 - 1.5 * g**2,
                *(entanglement_fidelity(code, rec, channel).value for rec in (qec, cp, fletcher)),
                baseline_no_qec(ad_single(g)),
            ]
        )
    header = [
        "gamma",
        "qec_series",
        "cp_series",
        "fletcher_series",
        "qec_exact",
        "cp_exact",
        "fletcher_exact",
        "baseline",
    ]
    json_obj = {"rows": [dict(zip(header, r)) for r in rows]}
    return header, rows, [], json_obj, checks


def cmd_appendix_a(args) -> Report:
    gamma = args.gamma
    code = leung4()
    channel = enlarge(ad_single(gamma), 4)
    a = channel.stack[channel.labels.index("0000")]
    p = code.projector
    sub_basis = [ket("0000"), ket("0011"), ket("1100"), ket("1111")]
    restricted = restrict(p @ dagger(a) @ a @ p, sub_basis)
    if not (1.0 - gamma) ** 2 > 1e-12:
        raise ValueError("appendix-a needs the restricted eigenvalue (1-gamma)^2 above 1e-12, "
                         "i.e. gamma below about 1 - 1e-6; got gamma = %r" % gamma)
    # the restricted matrix has rank 2: keep its two largest eigenvalues
    nonzero = [float(x) for x in np.linalg.eigvalsh(restricted)[-2:]]
    lam_min, lam_max = nonzero
    u_sub = restrict(polar_decompose(a, p).u, sub_basis)
    res = residue(a, p, p_l=lam_max, lambda_l=lam_min / lam_max)
    pi_sub = restrict(res.pi, sub_basis)
    excess = max(0.0, float(np.linalg.norm(pi_sub, 2)) - (np.sqrt(lam_max) - np.sqrt(lam_min)))
    checks = [("residue singular values within bound", res.bound_ok, excess)]

    def mat_lines(name: str, m: np.ndarray) -> list[str]:
        out = [name + " (basis 0000, 0011, 1100, 1111):"]
        for row in m:
            out.append("  " + "  ".join("%+.12f%+.12fj" % (z.real, z.imag) for z in row))
        return out

    json_obj = {
        "gamma": gamma,
        "eigenvalues": nonzero,
        "u_matrix": [[[z.real, z.imag] for z in row] for row in u_sub],
        "pi_matrix": [[[z.real, z.imag] for z in row] for row in pi_sub],
        "residue_bound_ok": res.bound_ok,
        "pi_corner_small_gamma": 0.5 * gamma**2,
    }
    lines = ["gamma = " + _num(gamma)]
    lines.append("restricted eigenvalues: " + ", ".join(_num(x) for x in nonzero))
    lines += mat_lines("recovery unitary", u_sub)
    lines += mat_lines("residue operator", pi_sub)
    lines.append("residue bound ok: %s" % res.bound_ok)
    lines.append("small-damping corner value gamma^2/2 = " + _num(0.5 * gamma**2))
    return [], [], lines, json_obj, checks


def cmd_certify(args) -> Report:
    tol = _tolerance()
    rng = np.random.default_rng(20240601)
    checks: list[Check] = []

    for p in (0.0, 0.1, 0.3, 0.5, 1.0):
        for maker, name in ((bitflip_single, "bitflip"), (phaseflip_single, "phaseflip")):
            checks.append(_trace_preserving("%s(p=%g)" % (name, p), enlarge(maker(p), 3)))
    for g in (0.0, 0.05, 0.1, 0.2, 0.9):
        checks.append(_trace_preserving("damping(gamma=%g)" % g, enlarge(ad_single(g), 4)))

    recoveries = [
        ("repetition recovery", repetition_recovery()),
        ("standard damping recovery (gamma=0.1)", standard_ad_recovery(0.1)),
        ("code-projected recovery", cp_recovery()),
        ("channel-adapted recovery (gamma=0.1)", _adapted_recovery(0.1)),
    ]
    for name, rec in recoveries:
        checks.append(_complete(name + " completeness", rec, tol))

    code = leung4()
    errors = enlarge(ad_single(0.1), 4)
    worst = 0.0
    for _ in range(100):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        state = (alpha * code.zero_logical + beta * code.one_logical) / norm
        worst = max(worst, abs(detection_probability(code, errors, state) - 1.0))
    checks.append(("damping probability bookkeeping (100 random code states)", worst <= 1e-12, worst))

    all_ok = all(ok for _, ok, _ in checks)
    lines = [
        "%s: %s (deviation %.3e)" % (name, "pass" if ok else "FAIL", value)
        for name, ok, value in checks
    ]
    lines.append("overall: %s" % ("pass" if all_ok else "FAIL"))
    json_obj = {
        "checks": [{"name": n, "pass": bool(ok), "deviation": v} for n, ok, v in checks],
        "overall": all_ok,
    }
    return [], [], lines, json_obj, checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qecwb",
        description="Exact and approximate quantum error correction workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False):
        if grid:
            p.add_argument("--grid", default=None, help="a,b,c or start:stop:count or log:start:stop:count")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json", "text"), default="text")

    p = sub.add_parser("bitflip", help="repetition-code fidelity table over p", description=(
        "Repetition-code fidelity table over the --grid values of p. The failure threshold "
        "and the coding-useful range always use the fixed 101-point grid on [0, 1], "
        "whatever --grid says."))
    common(p, grid=True)
    p.set_defaults(func=cmd_bitflip)

    p = sub.add_parser("ad-fidelity", help="damping fidelity table over gamma")
    common(p, grid=True)
    p.add_argument(
        "--recovery",
        choices=("qec", "cp", "fletcher", "fletcher-opt"),
        default="qec",
    )
    p.set_defaults(func=cmd_ad_fidelity)

    p = sub.add_parser("enumerate", help="classify the 28 self-complementary pairs")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("fig1", help="truncated-series comparison of the three recoveries")
    common(p)
    p.add_argument("--gamma-max", type=float, default=1e-2)
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("appendix-a", help="recovery unitary and residue for the no-damp error")
    common(p)
    p.add_argument("--gamma", type=float, default=0.1,
                   help="damping rate; needs (1-gamma)^2 > 1e-12, i.e. gamma below about 1 - 1e-6")
    p.set_defaults(func=cmd_appendix_a)

    p = sub.add_parser("certify", help="structural certificates for channels and recoveries")
    common(p)
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand, write its output, name each failed check on stderr; 1 iff one failed."""
    args = build_parser().parse_args(argv)
    try:
        header, rows, footer, json_obj, checks = args.func(args)
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    _emit(_render(args.format, header, rows, footer, json_obj), args.out)
    failed = [(name, deviation) for name, ok, deviation in checks if not ok]
    for name, deviation in failed:
        sys.stderr.write("check failed: %s (deviation %.3e)\n" % (name, deviation))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
