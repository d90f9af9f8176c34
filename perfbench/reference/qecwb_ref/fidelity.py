"""Entanglement fidelity evaluation, baselines, thresholds, and series fits.

The figure of merit for a (code, recovery, channel) triple is

    F = (1/4) * sum_{k,l} |<0_L| R_k A_l |0_L> + <1_L| R_k A_l |1_L>|**2,

the squared codespace-restricted traces of all composed operation elements.
The leftover projector of a recovery, when present, contributes its own row
of terms, tagged "O" in the term table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channels import KrausChannel
from .codes import QuantumCode
from .linalg import dagger, max_abs
from .recovery import RecoveryOperation

TermKey = tuple[Union[int, str], int]

NONVANISHING_TOL = 1e-14


@dataclass(frozen=True)
class TermContribution:
    key: TermKey
    trace: complex
    contribution: float


@dataclass(frozen=True)
class FidelityResult:
    value: float
    terms: tuple[TermContribution, ...]

    def recompute(self) -> float:
        return 0.25 * sum(abs(t.trace) ** 2 for t in self.terms)


@dataclass(frozen=True)
class SeriesEstimate:
    """Truncated expansion c0 + c1*x + c2*x**2 fitted to a sampled curve."""

    c0: float
    c1: float
    c2: float
    residual: float
    gammas_used: tuple[float, ...]


def _restricted_trace(code: QuantumCode, op: np.ndarray) -> complex:
    zero, one = code.codewords
    return complex(zero.conj() @ op @ zero + one.conj() @ op @ one)


def entanglement_fidelity(
    code: QuantumCode, recovery: RecoveryOperation, errors: KrausChannel
) -> FidelityResult:
    """Entanglement fidelity with the full (k, l) contribution table.

    Traces are taken directly against the codewords,
    <0_L|R A|0_L> + <1_L|R A|1_L>, with the encoded dimension fixed at 2.
    Leftover rows use the key ("O", l).
    """
    if recovery.dim != errors.dim:
        raise ValueError("recovery and channel dimensions differ")
    if recovery.completeness_defect() > 1e-10:
        raise ValueError("recovery is not trace preserving")
    recovery_rows: list[tuple[Union[int, str], np.ndarray]] = list(
        enumerate(recovery.operators())
    )
    if recovery.leftover is not None:
        recovery_rows.append(("O", recovery.leftover))
    terms = []
    for k, r_op in recovery_rows:
        for l, kraus in enumerate(errors.kraus):
            tr = _restricted_trace(code, r_op @ kraus.op)
            terms.append(TermContribution((k, l), tr, 0.25 * abs(tr) ** 2))
    value = float(sum(t.contribution for t in terms))
    return FidelityResult(value, tuple(terms))


def nonvanishing_terms(
    result: FidelityResult, tol: float = NONVANISHING_TOL
) -> list[tuple[int, int]]:
    """Indices (k, l) of recovery-operator terms contributing above tol.

    Leftover-projector rows are bookkept separately in the term table and
    are not part of the (k, l) lattice returned here.
    """
    return [
        t.key
        for t in result.terms
        if isinstance(t.key[0], int) and t.contribution > tol
    ]


def baseline_no_qec(channel: KrausChannel) -> float:
    """Single-qubit fidelity without coding: (1/4) sum_k |Tr A_k|**2.

    Probabilistic-unitary branches (A^dag A proportional to I) are written
    with the branch probability as a linear weight on the bare unitary, so
    the bit-flip channel yields (1-p)**2 = 1 - 2p + p**2; non-unitary Kraus
    operators such as the damping pair enter with their literal traces.
    """
    if channel.n_qubits != 1:
        raise ValueError("baseline is defined for single-qubit channels")
    total = 0.0
    eye = np.eye(channel.dim)
    for t in channel.kraus:
        gram = dagger(t.op) @ t.op
        prob = float(np.real(np.trace(gram))) / channel.dim
        if max_abs(gram - prob * eye) <= 1e-12:
            total += prob * abs(np.trace(t.op)) ** 2
        else:
            total += abs(np.trace(t.op)) ** 2
    return 0.25 * total


@dataclass(frozen=True)
class ThresholdReport:
    coding_useful_range: Optional[tuple[float, float]]
    failure_threshold: float


def _bisect_root(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        fmid = fn(mid)
        if (flo >= 0) == (fmid >= 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_analysis(
    fidelity_curve: Callable[[float], float],
    baseline_curve: Callable[[float], float],
    grid: Optional[Sequence[float]] = None,
    tol: float = 1e-10,
) -> ThresholdReport:
    """Where coding helps, and where failure outpaces the raw error rate.

    Reports the contiguous range from 0 on which the coded fidelity stays at
    or above the baseline, and the first crossing of 1 - F(p) = p located by
    bisection (1.0 when the failure probability never exceeds p).
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    grid = np.asarray(grid, dtype=float)
    last_useful = -1
    for i, p in enumerate(grid):
        if fidelity_curve(p) < baseline_curve(p) - 1e-12:
            break
        last_useful = i
    useful = (float(grid[0]), float(grid[last_useful])) if last_useful >= 0 else None

    margin = lambda p: p - (1.0 - fidelity_curve(p))
    threshold = float(grid[-1])
    for i in range(1, len(grid)):
        if margin(grid[i]) < -1e-15 and margin(grid[i - 1]) >= 0:
            threshold = _bisect_root(margin, float(grid[i - 1]), float(grid[i]), tol)
            break
    return ThresholdReport(useful, threshold)


def second_order_coeff(
    curve: Callable[[float], float], gammas: Sequence[float]
) -> SeriesEstimate:
    """Least-squares series coefficients of a sampled fidelity curve.

    Fits a cubic polynomial on the sample grid (quadratic when only three
    samples are supplied) and reports the constant, linear, and quadratic
    coefficients; the cubic term absorbs the higher-order tail so the
    quadratic coefficient is recovered to ~1e-3 on grids in (0, 1e-2].
    ``residual`` is the largest deviation of the fitted polynomial from the
    samples.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    if len(gammas) < 3 or gammas[0] <= 0 or gammas[-1] > 1e-2:
        raise ValueError("need >= 3 strictly positive samples, all <= 1e-2")
    if np.any(np.diff(gammas) <= 0):
        raise ValueError("samples must be distinct")
    values = np.array([curve(g) for g in gammas], dtype=float)
    degree = 3 if len(gammas) >= 4 else 2
    design = np.vander(gammas, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < degree + 1:
        raise ValueError("ill-conditioned fit: samples nearly collinear in design")
    fitted = design @ coeffs
    residual = float(np.max(np.abs(values - fitted)))
    return SeriesEstimate(
        float(coeffs[0]), float(coeffs[1]), float(coeffs[2]), residual, tuple(gammas)
    )
