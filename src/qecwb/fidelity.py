"""Entanglement fidelity evaluation, baselines, thresholds, and series fits.

The figure of merit for a (code, recovery, channel) triple is

    F = (1/4) * sum_{k,l} |<0_L| R_k A_l |0_L> + <1_L| R_k A_l |1_L>|**2,

the squared codespace-restricted traces of all composed operation elements.
With the codeword isometry V = [|0_L> |1_L>] (d x 2), every restricted trace
is Tr(V^dag R_k A_l V), so the whole (k, l) trace table is one contraction of
the stacked V^dag R_k against the stacked A_l V.  The leftover projector of a
recovery, when present, adds one more row to the table, keyed "O".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channels import KrausChannel
from .codes import QuantumCode
from .linalg import dagger
from .recovery import RecoveryOperation

TermKey = tuple[Union[int, str], int]

NONVANISHING_TOL = 1e-14  # smallest term contribution nonvanishing_terms lists
THRESHOLD_TOL = 1e-10  # width at which threshold_analysis stops bisecting a crossing
USEFUL_SLACK = 1e-12  # coding counts as useful while F_code >= F_baseline - USEFUL_SLACK
TRACE_PRESERVING_TOL = 1e-10  # largest recovery completeness defect entanglement_fidelity accepts


@dataclass(frozen=True)
class TermContribution:
    key: TermKey
    trace: complex
    contribution: float


@dataclass(frozen=True, eq=False)  # eq=False: the table is an array
class FidelityResult:
    """Fidelity value with its table of restricted traces.

    ``table[r, l]`` is <0_L|R A_l|0_L> + <1_L|R A_l|1_L> for the recovery
    operator keyed ``row_keys[r]``: the operator index k, or "O" for the
    leftover projector in the last row.  ``terms`` lists the same table as
    ``TermContribution``s with keys (k, l), row by row; it is built from the
    table the first time it is read.
    """

    value: float
    table: np.ndarray
    row_keys: tuple[Union[int, str], ...]

    @cached_property
    def terms(self) -> tuple[TermContribution, ...]:
        return tuple(
            TermContribution((k, l), tr, 0.25 * abs(tr) ** 2)
            for k, row in zip(self.row_keys, self.table.tolist())
            for l, tr in enumerate(row)
        )


@dataclass(frozen=True)
class SeriesEstimate:
    """Truncated expansion c0 + c1*x + c2*x**2 fitted to a sampled curve."""

    c0: float
    c1: float
    c2: float
    residual: float


def entanglement_fidelity(
    code: QuantumCode, recovery: RecoveryOperation, errors: KrausChannel
) -> FidelityResult:
    """Entanglement fidelity with the full (k, l) trace table.

    Traces are taken directly against the codewords,
    <0_L|R A|0_L> + <1_L|R A|1_L>, with the encoded dimension fixed at 2.
    The leftover row is keyed "O".
    """
    if not recovery.dim == errors.dim == code.isometry.shape[0]:
        raise ValueError("code, recovery and channel dimensions differ")
    if not recovery.completeness_defect() <= TRACE_PRESERVING_TOL:
        raise ValueError("recovery is not trace preserving")
    leftover = recovery.leftover is not None
    row_keys = tuple(range(len(recovery.stack) - leftover)) + ("O",) * leftover
    left = dagger(code.isometry) @ recovery.stack  # (K, 2, d): V^dag R_k
    right = errors.stack @ code.isometry  # (L, d, 2): A_l V
    table = np.einsum("kia,lai->kl", left, right)
    value = 0.25 * float(np.vdot(table, table).real)
    return FidelityResult(value, table, row_keys)


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
    stack = channel.stack
    grams = stack.conj().transpose(0, 2, 1) @ stack
    probs = np.trace(grams, axis1=1, axis2=2).real / channel.dim
    unitary = np.abs(grams - probs[:, None, None] * np.eye(channel.dim)).max(axis=(1, 2)) <= 1e-12
    weights = np.where(unitary, probs, 1.0).tolist()
    # summed term by term with Python's abs: the vectorized np.abs of a complex
    # array can differ from the scalar one in the last bit
    total = 0.0
    for weight, trace in zip(weights, np.trace(stack, axis1=1, axis2=2).tolist()):
        total += weight * abs(trace) ** 2
    return 0.25 * total


@dataclass(frozen=True)
class ThresholdReport:
    coding_useful_range: Optional[tuple[float, float]]
    failure_threshold: float


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("%s must be finite" % name)
    return values


def sweep_grid(grid: Sequence[float]) -> np.ndarray:
    """``grid`` as a float array; raises ``ValueError`` if empty, non-finite or not increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid is empty")
    _finite(grid, "grid values")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _bisect_root(fn: Callable[[float], float], lo: float, hi: float, flo: float) -> float:
    """Bisect a sign change of ``fn`` on [lo, hi], given flo = fn(lo), to ``THRESHOLD_TOL``."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= THRESHOLD_TOL:
            break
        fmid = fn(mid)
        if not math.isfinite(fmid):
            raise ValueError("curve values must be finite")
        if (flo >= 0) == (fmid >= 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_analysis(
    fidelity_curve: Callable[[float], float],
    baseline_curve: Callable[[float], float],
    grid: Sequence[float],
) -> ThresholdReport:
    """Where coding helps, and where failure outpaces the raw error rate.

    Reports the contiguous range from grid[0] on which the coded fidelity
    stays at or above the baseline less ``USEFUL_SLACK``, and the first
    crossing of 1 - F(p) = p bisected to ``THRESHOLD_TOL`` (grid[-1] when
    none).  Each curve is evaluated once per grid point; only the bisection
    evaluates more.  A grid ``sweep_grid`` rejects, and a non-finite curve
    value, raise ``ValueError``.
    """
    grid = sweep_grid(grid)
    coded = _finite(np.array([fidelity_curve(p) for p in grid], dtype=float), "curve values")
    base = _finite(np.array([baseline_curve(p) for p in grid], dtype=float), "curve values")
    harmful = coded < base - USEFUL_SLACK
    last_useful = int(np.argmax(harmful)) - 1 if harmful.any() else len(grid) - 1
    useful = (float(grid[0]), float(grid[last_useful])) if last_useful >= 0 else None

    margin = grid - (1.0 - coded)
    crossings = np.flatnonzero((margin[1:] < -1e-15) & (margin[:-1] >= 0))
    threshold = float(grid[-1])
    if crossings.size:
        i = int(crossings[0])
        threshold = _bisect_root(lambda p: p - (1.0 - fidelity_curve(p)),
                                 float(grid[i]), float(grid[i + 1]), float(margin[i]))
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
    samples.  A non-finite sample raises ``ValueError``.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    if len(gammas) < 3 or gammas[0] <= 0 or gammas[-1] > 1e-2:
        raise ValueError("need >= 3 strictly positive samples, all <= 1e-2")
    if np.any(np.diff(gammas) <= 0):
        raise ValueError("samples must be distinct")
    values = _finite(np.array([curve(g) for g in gammas], dtype=float), "curve values")
    degree = 3 if len(gammas) >= 4 else 2
    design = np.vander(gammas, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < degree + 1:
        raise ValueError("ill-conditioned fit: samples nearly collinear in design")
    fitted = design @ coeffs
    residual = float(np.max(np.abs(values - fitted)))
    return SeriesEstimate(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]), residual)
