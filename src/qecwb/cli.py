"""Command-line front end.

Subcommands drive every analysis in the package and emit tables as CSV,
JSON, or plain text.  All output is deterministic: identical inputs produce
byte-identical CSV/JSON.  The environment variable ``QECWB_TOL`` overrides
the default 1e-10 verdict tolerance used by the internal certificates; it
must be a finite positive number.

    qecwb bitflip [--grid 0:1:101] [--format csv] [--out table.csv]
    qecwb ad-fidelity --recovery qec|cp|fletcher|fletcher-opt
    qecwb enumerate
    qecwb fig1 [--gamma-max 1e-2] [--points 101]
    qecwb appendix-a [--gamma 0.1]
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
from .linalg import dagger, ket, restrict

DEFAULT_TOL = 1e-10
CHANNEL_TOL = 1e-12


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
        if parts[0] == "log" and len(parts) == 4:
            start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
            grid = np.logspace(np.log10(start), np.log10(stop), count)
        elif len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            grid = np.linspace(start, stop, count)
        else:
            raise SystemExit("error: grid must be a,b,c, start:stop:count or log:start:stop:count")
    elif not expr.strip():
        raise SystemExit("error: grid is empty")
    else:
        grid = np.array([float(tok) for tok in expr.split(",")], dtype=float)
    if grid.size == 0:
        raise SystemExit("error: grid is empty")
    if np.any(np.diff(grid) <= 0):
        raise SystemExit("error: grid must be strictly increasing")
    if grid[0] < lo or grid[-1] > hi:
        raise SystemExit("error: grid leaves the valid parameter domain [%g, %g]" % (lo, hi))
    return grid


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list[float]], footer: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_num(x) for x in row) for row in rows]
    lines += ["# " + f for f in footer]
    return "\n".join(lines) + "\n"


def _text_table(header: list[str], rows: list[list[float]], footer: list[str]) -> str:
    widths = [max(len(h), 24) for h in header]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(("%.12g" % x).ljust(w) for x, w in zip(row, widths)))
    lines += footer
    return "\n".join(lines) + "\n"


def _render(fmt: str, header, rows, footer_lines, json_obj) -> str:
    if fmt == "csv":
        return _csv(header, rows, footer_lines)
    if fmt == "json":
        return json.dumps(json_obj, indent=2) + "\n"
    return _text_table(header, rows, footer_lines)


def cmd_bitflip(args) -> int:
    """Fidelity table over ``--grid``; threshold and useful range use 101 points on [0, 1]."""
    tol = _tolerance()
    grid = _parse_grid(args.grid, np.linspace(0.0, 1.0, 101), 0.0, 1.0)
    recovery = repetition_recovery()
    code = repetition3()
    ok = recovery.completeness_defect() <= tol

    def coded(p: float) -> float:
        return entanglement_fidelity(code, recovery, enlarge(bitflip_single(p), 3)).value

    def baseline(p: float) -> float:
        return baseline_no_qec(bitflip_single(p))

    rows = []
    for p in grid:
        channel = enlarge(bitflip_single(p), 3)
        ok &= channel.completeness_defect() <= CHANNEL_TOL
        f = entanglement_fidelity(code, recovery, channel).value
        b = baseline(p)
        rows.append(
            [p, f, b, 1.0 - f, float(f >= b - 1e-12), float(1.0 - f <= p + 1e-12)]
        )
    report = threshold_analysis(coded, baseline, grid=np.linspace(0.0, 1.0, 101))
    useful = report.coding_useful_range
    footer = [
        "failure_threshold = " + _num(report.failure_threshold),
        "coding_useful_range = "
        + ("none" if useful is None else "[%s, %s]" % (_num(useful[0]), _num(useful[1]))),
    ]
    json_obj = {
        "rows": [
            {
                "p": r[0],
                "f_code": r[1],
                "f_baseline": r[2],
                "p_failure": r[3],
                "useful": bool(r[4]),
                "below_threshold": bool(r[5]),
            }
            for r in rows
        ],
        "failure_threshold": report.failure_threshold,
        "coding_useful_range": None if useful is None else list(useful),
    }
    header = ["p", "f_code", "f_baseline", "p_failure", "useful", "below_threshold"]
    _emit(_render(args.format, header, rows, footer, json_obj), args.out)
    return 0 if ok else 1


def cmd_ad_fidelity(args) -> int:
    tol = _tolerance()
    grid = _parse_grid(args.grid, np.logspace(-4, -2, 9), 0.0, 1.0)
    kind = args.recovery
    code = leung4()
    ok = True
    rows = []
    optima = []
    for g in grid:
        channel = enlarge(ad_single(g), 4)
        ok &= channel.completeness_defect() <= CHANNEL_TOL
        if kind in ("fletcher", "fletcher-opt"):
            optima.append(closed_form_optimum(g))
        if kind == "fletcher-opt":
            f = optima[-1].f_star
        else:
            if kind == "qec":
                rec = standard_ad_recovery(g)
            elif kind == "cp":
                rec = cp_recovery()
            else:
                rec = fletcher_recovery(optima[-1].a_bar, optima[-1].b_bar)
            ok &= rec.completeness_defect() <= tol
            f = entanglement_fidelity(code, rec, channel).value
        rows.append([g, f])
    fit = None
    if len(grid) >= 3 and grid[0] > 0 and grid[-1] <= 1e-2:
        fit = second_order_coeff(dict(zip(grid, (f for _, f in rows))).__getitem__, grid)
    footer = []
    if fit is not None:
        footer = [
            "c0 = " + _num(fit.c0),
            "c1 = " + _num(fit.c1),
            "c2 = " + _num(fit.c2),
        ]
    json_obj = {
        "recovery": kind,
        "rows": [{"gamma": r[0], "fidelity": r[1]} for r in rows],
        "fit": None
        if fit is None
        else {"c0": fit.c0, "c1": fit.c1, "c2": fit.c2, "residual": fit.residual},
    }
    if kind == "fletcher-opt":
        json_obj["optima"] = [
            closed.to_json_dict(g, numeric_optimum(g)) for g, closed in zip(grid, optima)
        ]
    _emit(_render(args.format, ["gamma", "fidelity"], rows, footer, json_obj), args.out)
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    pairs = enumerate_pairs()
    results = [classify_pair(p) for p in pairs]
    good = [r for r in results if r.good]
    header = ["i", "j", "good", "witness", "slope"]
    lines = [",".join(header)]
    for r in results:
        witness = "-" if r.witness is None else "+".join(r.witness)
        slope = "" if r.slope is None else _num(r.slope)
        lines.append(
            "%d,%d,%s,%s,%s" % (r.index_pair[0], r.index_pair[1], str(r.good).lower(), witness, slope)
        )
    lines.append("# good_pairs = %d" % len(good))
    lines.append("# good_set = " + " ".join("(%d,%d)" % r.index_pair for r in good))
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
    if args.format == "json":
        _emit(json.dumps(json_obj, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if len(good) == 3 else 1


def cmd_fig1(args) -> int:
    if args.points < 1:
        raise SystemExit("error: --points must be at least 1")
    tol = _tolerance()
    grid = np.linspace(0.0, args.gamma_max, args.points)
    code = leung4()
    cp = cp_recovery()
    ok = cp.completeness_defect() <= tol
    rows = []
    for i, g in enumerate(grid):
        channel = enlarge(ad_single(g), 4)
        ok &= channel.completeness_defect() <= CHANNEL_TOL
        opt = closed_form_optimum(g)
        qec = standard_ad_recovery(g)
        fletcher = fletcher_recovery(opt.a_bar, opt.b_bar)
        if i in (0, len(grid) - 1):
            ok &= qec.completeness_defect() <= tol
            ok &= fletcher.completeness_defect() <= tol
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
    _emit(_render(args.format, header, rows, [], json_obj), args.out)
    return 0 if ok else 1


def cmd_appendix_a(args) -> int:
    gamma = args.gamma
    code = leung4()
    channel = enlarge(ad_single(gamma), 4)
    a = {t.label: t.op for t in channel.kraus}["0000"]
    p = code.projector
    sub_basis = [ket("0000"), ket("0011"), ket("1100"), ket("1111")]
    restricted = restrict(p @ dagger(a) @ a @ p, sub_basis)
    eigs = np.linalg.eigvalsh(restricted)
    nonzero = sorted(float(x) for x in eigs if x > 1e-12)
    pol = polar_decompose(a, p)
    u_sub = restrict(pol.u, sub_basis)
    if len(nonzero) != 2:
        raise ValueError("expected two nonzero restricted eigenvalues, got %d" % len(nonzero))
    lam_min, lam_max = nonzero
    res = residue(a, p, p_l=lam_max, lambda_l=lam_min / lam_max)
    pi_sub = restrict(res.pi, sub_basis)

    def mat_lines(name: str, m: np.ndarray) -> list[str]:
        out = [name + " (basis 0000, 0011, 1100, 1111):"]
        for row in m:
            out.append("  " + "  ".join("%+.12f%+.12fj" % (z.real, z.imag) for z in row))
        return out

    if args.format == "json":
        payload = {
            "gamma": gamma,
            "eigenvalues": nonzero,
            "u_matrix": [[[z.real, z.imag] for z in row] for row in u_sub],
            "pi_matrix": [[[z.real, z.imag] for z in row] for row in pi_sub],
            "residue_bound_ok": res.bound_ok,
            "pi_corner_small_gamma": 0.5 * gamma**2,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["gamma = " + _num(gamma)]
        lines.append(
            "restricted eigenvalues: " + ", ".join(_num(x) for x in nonzero)
        )
        lines += mat_lines("recovery unitary", u_sub)
        lines += mat_lines("residue operator", pi_sub)
        lines.append("residue bound ok: %s" % res.bound_ok)
        lines.append("small-damping corner value gamma^2/2 = " + _num(0.5 * gamma**2))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if res.bound_ok else 1


def cmd_certify(args) -> int:
    tol = _tolerance()
    rng = np.random.default_rng(20240601)
    checks: list[tuple[str, bool, float]] = []

    for p in (0.0, 0.1, 0.3, 0.5, 1.0):
        for maker, name in ((bitflip_single, "bitflip"), (phaseflip_single, "phaseflip")):
            d = enlarge(maker(p), 3).completeness_defect()
            checks.append(("%s(p=%g) 3-qubit trace preservation" % (name, p), d <= CHANNEL_TOL, d))
    for g in (0.0, 0.05, 0.1, 0.2, 0.9):
        d = enlarge(ad_single(g), 4).completeness_defect()
        checks.append(("damping(gamma=%g) 4-qubit trace preservation" % g, d <= CHANNEL_TOL, d))

    recoveries = [
        ("repetition recovery", repetition_recovery()),
        ("standard damping recovery (gamma=0.1)", standard_ad_recovery(0.1)),
        ("code-projected recovery", cp_recovery()),
    ]
    opt = closed_form_optimum(0.1)
    recoveries.append(("channel-adapted recovery (gamma=0.1)", fletcher_recovery(opt.a_bar, opt.b_bar)))
    for name, rec in recoveries:
        d = rec.completeness_defect()
        checks.append((name + " completeness", d <= tol, d))

    code = leung4()
    channel = enlarge(ad_single(0.1), 4)
    worst = 0.0
    for _ in range(100):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        state = (alpha * code.zero_logical + beta * code.one_logical) / norm
        total = sum(
            float(np.real(np.vdot(t.op @ state, t.op @ state))) for t in channel.kraus
        )
        worst = max(worst, abs(total - 1.0))
    checks.append(("damping probability bookkeeping (100 random code states)", worst <= 1e-12, worst))

    lines = []
    all_ok = True
    for name, ok, value in checks:
        all_ok &= ok
        lines.append("%s: %s (deviation %.3e)" % (name, "pass" if ok else "FAIL", value))
    lines.append("overall: %s" % ("pass" if all_ok else "FAIL"))
    if args.format == "json":
        payload = {
            "checks": [
                {"name": n, "pass": bool(ok), "deviation": v} for n, ok, v in checks
            ],
            "overall": bool(all_ok),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qecwb",
        description="Exact and approximate quantum error correction workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--grid", default=None, help="a,b,c or start:stop:count or log:start:stop:count")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json", "text"), default="text")

    p = sub.add_parser("bitflip", help="repetition-code fidelity table over p", description=(
        "Repetition-code fidelity table over the --grid values of p. The failure threshold "
        "and the coding-useful range always use the fixed 101-point grid on [0, 1], "
        "whatever --grid says."))
    common(p)
    p.set_defaults(func=cmd_bitflip)

    p = sub.add_parser("ad-fidelity", help="damping fidelity table over gamma")
    common(p)
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
    p.add_argument("--gamma", type=float, default=0.1)
    p.set_defaults(func=cmd_appendix_a)

    p = sub.add_parser("certify", help="structural certificates for channels and recoveries")
    common(p)
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)


if __name__ == "__main__":
    sys.exit(main())
