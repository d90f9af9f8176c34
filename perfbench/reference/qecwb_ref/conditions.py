"""Detectability, Knill-Laflamme correctability, and first-order diagnostics.

An error A is detectable on a code when P A P = lambda P on the codespace.
A set {A_l} is exactly correctable when every restricted product
<i_L| A_l^dag A_m |j_L> is delta_ij times a constant.  Approximate
("first order") variants classify the violation by its scaling order in the
noise parameter: a violation of order gamma**2 when the detection amplitudes
are O(1) does not spoil first-order protection, while any O(gamma) or
O(sqrt(gamma)) violation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .channels import ad_single, enlarge
from .codes import QuantumCode, SelfComplementaryPair
from .linalg import max_abs

EXACT_TOL = 1e-10
ZERO_FLOOR = 1e-13
FIRST_ORDER_SLOPE = 2.0 - 0.1
DEFAULT_GAMMAS = (1e-4, 1e-3, 1e-2)

LabeledError = tuple[str, np.ndarray]

# Enlarged amplitude-damping errors of weight <= 1; the set whose
# first-order correctability defines a "good" four-qubit code.
WEIGHT_LE1_LABELS = ("0000", "1000", "0100", "0010", "0001")


@dataclass(frozen=True)
class DetectabilityReport:
    label: str
    lam: complex
    residual: float
    off_diag: tuple[complex, complex]
    verdict: bool


@dataclass(frozen=True)
class KLGram:
    """All pairwise codespace-restricted 2x2 blocks <i_L|A_l^dag A_m|j_L>."""

    labels: tuple[str, ...]
    blocks: dict
    diag_eigs: dict
    max_offdiag_violation: float
    max_diag_mismatch: float

    def block(self, l: str, m: str) -> np.ndarray:
        return self.blocks[(l, m)]


@dataclass(frozen=True)
class CorrectabilityVerdict:
    errors: tuple[str, ...]
    exact: bool
    violation: float
    witness_pair: Optional[tuple[str, str]]


@dataclass(frozen=True)
class ViolationOrder:
    """Log-log scaling estimate of a correctability violation."""

    exact: bool
    slope: Optional[float]
    violations: tuple[float, ...]
    gammas: tuple[float, ...]

    @property
    def first_order_correctable(self) -> bool:
        return self.exact or (self.slope is not None and self.slope >= FIRST_ORDER_SLOPE)


@dataclass(frozen=True)
class PairClassification:
    index_pair: tuple[int, int]
    good: bool
    witness: Optional[tuple[str, str]]
    slope: Optional[float]


def detectability(code: QuantumCode, a: np.ndarray, tol: float = EXACT_TOL,
                  label: str = "") -> DetectabilityReport:
    """Check P A P = lambda P with lambda extracted as tr(PAP)/tr(P)."""
    p = code.projector
    pap = p @ np.asarray(a, dtype=complex) @ p
    lam = complex(np.trace(pap) / np.trace(p).real)
    residual = max_abs(pap - lam * p)
    zero, one = code.codewords
    off = (complex(zero.conj() @ a @ one), complex(one.conj() @ a @ zero))
    return DetectabilityReport(label, lam, float(residual), off, residual <= tol)


def _fit_slope(gammas: Sequence[float], values: Sequence[float]) -> float:
    logs = np.log(np.asarray(gammas, dtype=float))
    logv = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(logs, logv, 1)[0])


def detectable_to_first_order(
    family: Callable[[float], tuple[QuantumCode, np.ndarray]],
    gammas: Sequence[float] = DEFAULT_GAMMAS,
) -> bool:
    """Classify detectability by scaling order over a noise sweep.

    The single error is detectable to first order when its residual is
    either identically zero or scales at least one order higher in the noise
    parameter than the detection amplitude lambda itself.  This reproduces
    the sharp verdicts of the damping analysis: a residual of order gamma**2
    on top of lambda = O(1) passes, while an error whose entire amplitude is
    O(gamma**2) (so residual ~ lambda) fails.
    """
    residuals, lams = [], []
    for g in gammas:
        code, op = family(g)
        rep = detectability(code, op, tol=np.inf)
        residuals.append(rep.residual)
        lams.append(abs(rep.lam))
    residuals = np.asarray(residuals)
    lams = np.asarray(lams)
    if np.all(residuals <= ZERO_FLOOR):
        return True
    if np.all(lams <= ZERO_FLOOR):
        return False
    if np.any(residuals <= ZERO_FLOOR) or np.any(lams <= ZERO_FLOOR):
        return False
    slope_gap = _fit_slope(gammas, residuals) - _fit_slope(gammas, lams)
    return slope_gap >= 1.0 - 0.1


def kl_gram(code: QuantumCode, errors: Sequence[LabeledError]) -> KLGram:
    """Restricted Gram data for every ordered pair of errors."""
    zero, one = code.codewords
    images = {label: (op @ zero, op @ one) for label, op in errors}
    labels = tuple(label for label, _ in errors)
    blocks = {}
    diag_eigs = {}
    max_off = 0.0
    max_mismatch = 0.0
    for l in labels:
        for m in labels:
            li, mi = images[l], images[m]
            block = np.array(
                [
                    [np.vdot(li[0], mi[0]), np.vdot(li[0], mi[1])],
                    [np.vdot(li[1], mi[0]), np.vdot(li[1], mi[1])],
                ]
            )
            blocks[(l, m)] = block
            max_off = max(max_off, abs(block[0, 1]), abs(block[1, 0]))
            max_mismatch = max(max_mismatch, abs(block[0, 0] - block[1, 1]))
            if l == m:
                eigs = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
                diag_eigs[l] = (float(eigs[0]), float(eigs[1]))
    return KLGram(labels, blocks, diag_eigs, float(max_off), float(max_mismatch))


def _pair_violation(block: np.ndarray) -> float:
    return float(
        max(abs(block[0, 1]), abs(block[1, 0]), abs(block[0, 0] - block[1, 1]))
    )


def exact_correctable(
    code: QuantumCode, errors: Sequence[LabeledError], tol: float = EXACT_TOL
) -> CorrectabilityVerdict:
    """Exact Knill-Laflamme verdict for an error set.

    The violation is the worst off-diagonal magnitude or diagonal mismatch
    over all error pairs; the witness is a pair achieving it.
    """
    gram = kl_gram(code, errors)
    labels = gram.labels
    worst = 0.0
    witness = None
    for i, l in enumerate(labels):
        for m in labels[i:]:
            v = _pair_violation(gram.blocks[(l, m)])
            if v > worst:
                worst, witness = v, (l, m)
    return CorrectabilityVerdict(labels, worst <= tol, worst, witness)


def violation_order(
    family: Callable[[float], tuple[QuantumCode, Sequence[LabeledError]]],
    gammas: Sequence[float] = DEFAULT_GAMMAS,
) -> ViolationOrder:
    """Log-log slope of the exact-correctability violation across a sweep.

    Violations below 1e-13 at every sample are reported as exact; a slope of
    at least ~2 marks the set as first-order correctable (violations are
    O(gamma**2) while detection probabilities carry O(gamma) weight).
    """
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) < 2 or min(gammas) <= 0 or max(gammas) > 1e-2:
        raise ValueError("need >= 2 noise samples in (0, 1e-2]")
    violations = []
    for g in gammas:
        code, errors = family(g)
        violations.append(exact_correctable(code, errors, tol=np.inf).violation)
    violations = tuple(violations)
    if all(v <= ZERO_FLOOR for v in violations):
        return ViolationOrder(True, None, violations, gammas)
    slope = _fit_slope(gammas, np.maximum(violations, 1e-300))
    return ViolationOrder(False, slope, violations, gammas)


def weight_le1_ad_errors(gamma: float) -> list[LabeledError]:
    """The five enlarged damping errors of weight <= 1 on four qubits."""
    channel = enlarge(ad_single(gamma), 4)
    by_label = {t.label: t.op for t in channel.kraus}
    return [(label, by_label[label]) for label in WEIGHT_LE1_LABELS]


def classify_pair(
    pair: SelfComplementaryPair, gammas: Sequence[float] = DEFAULT_GAMMAS
) -> PairClassification:
    """Good/bad verdict for a candidate self-complementary codeword pair.

    A pair is good when the weight <= 1 damping error set is first-order
    correctable.  Every error pair (l, m) is classified separately by its
    violation slope; the reported witness is the last failing pair in
    (l, m) index order.
    """
    code = pair.as_code()
    if code.n_qubits != 4:
        raise ValueError("classification is defined for four-qubit pairs")
    grams = [kl_gram(code, weight_le1_ad_errors(g)) for g in gammas]
    labels = grams[0].labels
    failing: list[tuple[int, int]] = []
    overall = [
        max(
            _pair_violation(gram.blocks[(l, m)])
            for i, l in enumerate(labels)
            for m in labels[i:]
        )
        for gram in grams
    ]
    for i, l in enumerate(labels):
        for j, m in enumerate(labels[i:], start=i):
            vio = [_pair_violation(g.blocks[(l, m)]) for g in grams]
            if all(v <= ZERO_FLOOR for v in vio):
                continue
            if _fit_slope(gammas, np.maximum(vio, 1e-300)) < FIRST_ORDER_SLOPE:
                failing.append((i, j))
    if all(v <= ZERO_FLOOR for v in overall):
        slope = None
    else:
        slope = _fit_slope(gammas, np.maximum(overall, 1e-300))
    witness = None
    if failing:
        i, j = max(failing)
        witness = (labels[i], labels[j])
    return PairClassification(pair.index_pair, not failing, witness, slope)


def detection_probability(
    code: QuantumCode, errors: Sequence[LabeledError], state: np.ndarray
) -> float:
    """Total detection probability sum_k <psi|A_k^dag A_k|psi> of an error set."""
    state = np.asarray(state, dtype=complex)
    if not code.contains(state):
        raise ValueError("state does not lie in the codespace")
    total = 0.0
    for _, op in errors:
        image = op @ state
        total += float(np.real(np.vdot(image, image)))
    return total
