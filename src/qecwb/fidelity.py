"""Entanglement fidelity evaluation, baselines, thresholds, and series fits.

The figure of merit for a (code, recovery, channel) triple is

    F = (1/4) * sum_{k,l} |<0_L| R_k A_l |0_L> + <1_L| R_k A_l |1_L>|**2,

the squared codespace-restricted traces of all composed operation elements.
With the codeword isometry V = [|0_L> |1_L>] (d x 2), every restricted trace
is Tr(V^dag R_k A_l V), so the whole (k, l) trace table is one contraction of
the stacked V^dag R_k against the stacked A_l V.  The leftover projector of a
recovery, when present, adds one more row to the table, keyed "O".  Both
factor stacks are read-only arrays kept in two small caches keyed on the
identity of the (code, recovery) and (code, channel) objects, so a sweep
that applies one channel to several recoveries forms A_l V once per point,
and a shared recovery forms V^dag R_k once.  The A_l V cache holds as many
channels as ``enlarge``'s cache (32): one sweep's table and the analysis
pass that revisits its points, so a channel ``enlarge`` still holds has its
A_l V too.  A 4-qubit channel is a 64 KiB stack with an 8 KiB A_l V, so the
two caches stay under 2.3 MiB; a 3-qubit pair takes 10 KiB.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .channels import _ENLARGE_CACHE_SIZE, KrausChannel
from .codes import QuantumCode
from .linalg import _Frozen, _images, real_rate
from .recovery import RecoveryOperation

TermKey = tuple[Union[int, str], int]

NONVANISHING_TOL = 1e-14  # smallest term contribution nonvanishing_terms lists
THRESHOLD_TOL = 1e-10  # width at which threshold_analysis stops bisecting a crossing
USEFUL_SLACK = 1e-12  # coding counts as useful while F_code >= F_baseline - USEFUL_SLACK
TRACE_PRESERVING_TOL = 1e-10  # largest recovery completeness defect entanglement_fidelity accepts
UNITARY_BRANCH_TOL = 1e-12  # max-norm |A^dag A - p I| at which baseline_no_qec weights A by p
CROSSING_MARGIN = 1e-15  # threshold_analysis brackets a crossing once p - (1 - F) < -this
SERIES_NOISE_MAX = 1e-2  # largest noise sample of the series fit and of the violation-order fits


class TermContribution(NamedTuple):
    key: TermKey
    trace: complex
    contribution: float


class FidelityResult(_Frozen):
    """Fidelity value with its table of restricted traces.

    ``table[r, l]`` is <0_L|R A_l|0_L> + <1_L|R A_l|1_L> for the recovery
    operator keyed ``row_keys[r]``: the operator index k, or "O" for the
    leftover projector in the last row.  ``terms`` lists the same table as
    ``TermContribution``s with keys (k, l), row by row; it is built from the
    table the first time it is read.
    """

    _fields = ("value", "table", "row_keys")

    @cached_property
    def terms(self) -> tuple[TermContribution, ...]:
        return tuple(
            TermContribution((k, l), tr, 0.25 * abs(tr) ** 2)
            for k, row in zip(self.row_keys, self.table.tolist())
            for l, tr in enumerate(row)
        )


class SeriesEstimate(NamedTuple):
    """Truncated expansion c0 + c1*x + c2*x**2 fitted to a sampled curve."""

    c0: float
    c1: float
    c2: float
    residual: float


# Keyed on the objects, which compare by identity; a cache holds its keys, so
# an identity cannot be reused while its entry lives.  Three recoveries cover
# one damping sweep point (a new standard and adapted one, the shared
# code-projected one); the channels are those enlarge keeps, one sweep's worth.
@lru_cache(maxsize=3)
def _recovery_factors(code: QuantumCode, recovery: RecoveryOperation) -> tuple[np.ndarray, tuple]:
    """Read-only (K, 2, d) stack of V^dag R_k, and each row's key: k, or "O" for the leftover."""
    left = code.isometry.conj().T @ recovery.stack
    left.flags.writeable = False
    leftover = recovery.leftover is not None
    return left, tuple(range(len(left) - leftover)) + ("O",) * leftover


@lru_cache(maxsize=_ENLARGE_CACHE_SIZE)
def _channel_factors(code: QuantumCode, channel: KrausChannel) -> np.ndarray:
    """Read-only (L, d, 2) stack of A_l V."""
    right = _images(channel.stack, code.isometry)
    right.flags.writeable = False
    return right


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
    left, row_keys = _recovery_factors(code, recovery)
    table = np.einsum("kia,lai->kl", left, _channel_factors(code, errors))
    value = 0.25 * float(np.vdot(table, table).real)
    return FidelityResult(value, table, row_keys)


def nonvanishing_terms(
    result: FidelityResult, tol: float = NONVANISHING_TOL
) -> list[tuple[int, int]]:
    """Indices (k, l) of recovery-operator terms contributing above tol.

    Leftover-projector rows are bookkept separately in the term table and
    are not part of the (k, l) lattice returned here.  Keys come row by row.
    ``tol`` must be a finite real number >= 0 (read by ``real_rate``), or ``ValueError`` is raised.
    """
    tol = real_rate(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be a finite number >= 0")
    return [(k, l) for k, row in zip(result.row_keys, result.table.tolist()) if k != "O"
            for l, trace in enumerate(row) if 0.25 * abs(trace) ** 2 > tol]


@lru_cache(maxsize=_ENLARGE_CACHE_SIZE)
def baseline_no_qec(channel: KrausChannel) -> float:
    """Single-qubit fidelity without coding: (1/4) sum_k |Tr A_k|**2.

    Probabilistic-unitary branches (A^dag A proportional to I) are written
    with the branch probability as a linear weight on the bare unitary, so
    the bit-flip channel yields (1-p)**2 = 1 - 2p + p**2; non-unitary Kraus
    operators such as the damping pair enter with their literal traces.
    The last 32 are kept, keyed on the channel's identity: a builder's shared channel is read once.
    """
    if channel.n_qubits != 1:
        raise ValueError("baseline is defined for single-qubit channels")
    stack = channel.stack
    total = 0.0
    # numpy forms the grams in one product; the 2 x 2 arithmetic on Python numbers costs less
    # than numpy's per-call overhead. Scalar abs: the vectorized np.abs can differ from it in
    # the last bit, which matters only within one ulp of the 1e-12 gate
    for ((g00, g01), (g10, g11)), ((a00, _), (_, a11)) in zip(
            (stack.conj().transpose(0, 2, 1) @ stack).tolist(), stack.tolist()):
        prob = (g00 + g11).real / 2
        unitary = max(abs(g00 - prob), abs(g01), abs(g10), abs(g11 - prob)) <= UNITARY_BRANCH_TOL
        total += (prob if unitary else 1.0) * abs(a00 + a11) ** 2
    return 0.25 * total


class ThresholdReport(NamedTuple):
    coding_useful_range: Optional[tuple[float, float]]
    failure_threshold: float


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("%s must be finite" % name)
    return values


def sweep_grid(grid: Sequence[float]) -> np.ndarray:
    """``grid`` as a float array; raises ``ValueError`` unless a one-dimensional sequence, or if
    empty, not increasing or holding a value ``real_rate`` does not read as a finite number."""
    try:
        flat = np.ndim(grid) == 1
    except ValueError:  # a ragged nesting
        flat = False
    if not flat:
        raise ValueError("grid must be a one-dimensional sequence")
    grid = np.array([real_rate(x) for x in grid])
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
    none).  Each curve is evaluated once per grid point, at a Python float (never a numpy
    scalar); only the bisection evaluates more, at Python floats too.  A grid ``sweep_grid``
    rejects, and a curve value that ``real_rate`` does not read as finite, raise ``ValueError``.
    """
    grid = sweep_grid(grid)
    points = grid.tolist()
    coded = _finite(np.array([real_rate(fidelity_curve(p)) for p in points]), "curve values")
    base = _finite(np.array([real_rate(baseline_curve(p)) for p in points]), "curve values")
    harmful = coded < base - USEFUL_SLACK
    last_useful = int(np.argmax(harmful)) - 1 if harmful.any() else len(grid) - 1
    useful = (points[0], points[last_useful]) if last_useful >= 0 else None

    margin = grid - (1.0 - coded)
    crossings = np.flatnonzero((margin[1:] < -CROSSING_MARGIN) & (margin[:-1] >= 0))
    threshold = points[-1]
    if crossings.size:
        i = int(crossings[0])
        threshold = _bisect_root(lambda p: p - (1.0 - real_rate(fidelity_curve(p))),
                                 points[i], points[i + 1], float(margin[i]))
    return ThresholdReport(useful, threshold)


def in_series_domain(gammas: np.ndarray) -> bool:
    """Whether ``second_order_coeff`` fits ``gammas``: 3 or more, all in (0, SERIES_NOISE_MAX]."""
    return len(gammas) >= 3 and bool(np.all((gammas > 0) & (gammas <= SERIES_NOISE_MAX)))


def second_order_coeff(
    curve: Callable[[float], float], gammas: Sequence[float]
) -> SeriesEstimate:
    """Least-squares series coefficients of a sampled fidelity curve.

    Fits a cubic polynomial to the curve at each sample, called with a Python float (never a
    numpy scalar), or a quadratic when only three samples are supplied, and reports the
    constant, linear, and quadratic coefficients; the cubic term absorbs the higher-order tail
    so the quadratic coefficient is recovered to ~1e-3 on grids in (0, 1e-2].
    ``residual`` is the largest deviation of the fitted polynomial from the
    samples.  A sample outside ``in_series_domain`` or a value that is not a finite real number
    (both read by ``real_rate``) raises ``ValueError``.
    """
    gammas = np.array(sorted(map(real_rate, gammas)))
    if not in_series_domain(gammas):
        raise ValueError("need >= 3 strictly positive samples, all <= 1e-2")
    if np.any(np.diff(gammas) <= 0):
        raise ValueError("samples must be distinct")
    values = _finite(np.array([real_rate(curve(g)) for g in gammas.tolist()]), "curve values")
    degree = 3 if len(gammas) >= 4 else 2
    design = np.vander(gammas, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < degree + 1:
        raise ValueError("ill-conditioned fit: samples nearly collinear in design")
    fitted = design @ coeffs
    residual = float(np.max(np.abs(values - fitted)))
    return SeriesEstimate(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]), residual)
