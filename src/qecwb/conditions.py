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
    verdict: bool


@dataclass(frozen=True)
class KLGram:
    """All pairwise codespace-restricted 2x2 blocks <i_L|A_l^dag A_m|j_L>."""

    labels: tuple[str, ...]
    blocks: dict
    diag_eigs: dict

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
    return DetectabilityReport(label, lam, float(residual), residual <= tol)


def _fit_slope(gammas: Sequence[float], values) -> np.ndarray:
    """Log-log slope of a (G,) array, or of each column of a (G, k) one; zeros clamp to 1e-300."""
    logv = np.log(np.maximum(np.asarray(values, dtype=float), 1e-300))
    return np.polyfit(np.log(np.asarray(gammas, dtype=float)), logv, 1)[0]


def _noise_samples(gammas: Sequence[float]) -> tuple[float, ...]:
    gammas = tuple(float(g) for g in gammas)
    if len(set(gammas)) < 2 or not all(0.0 < g <= 1e-2 for g in gammas):
        raise ValueError("need >= 2 distinct noise samples in (0, 1e-2], got %r" % (gammas,))
    return gammas


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
    gammas = _noise_samples(gammas)
    reports = [detectability(*family(g), tol=np.inf) for g in gammas]
    residuals = np.array([rep.residual for rep in reports])
    lams = np.array([abs(rep.lam) for rep in reports])
    if np.all(residuals <= ZERO_FLOOR):
        return True
    if np.any(residuals <= ZERO_FLOOR) or np.any(lams <= ZERO_FLOOR):
        return False
    return _fit_slope(gammas, residuals) - _fit_slope(gammas, lams) >= 1.0 - 0.1


def _gram_blocks(images: np.ndarray) -> np.ndarray:
    """Blocks (A_l V)^dag (A_m V), (G, L, L, 2, 2), of images A_l V stacked as (G, L, d, 2)."""
    return np.einsum("glai,gmaj->glmij", images.conj(), images)


def _upper_pairs(items: Sequence) -> list[tuple]:
    """Pairs (items[i], items[j]), i <= j, in row-major order."""
    return [(a, b) for i, a in enumerate(items) for b in items[i:]]


def _pair_violations(grams: np.ndarray) -> np.ndarray:
    """max(|b01|, |b10|, |b00 - b11|) of each block, in ``_upper_pairs`` order.

    ``grams`` is (G, L, L, 2, 2); the result is (G, L (L + 1) / 2).
    """
    rows, cols = zip(*_upper_pairs(range(grams.shape[1])))
    b = grams[:, rows, cols]
    off = np.maximum(np.abs(b[..., 0, 1]), np.abs(b[..., 1, 0]))
    return np.maximum(off, np.abs(b[..., 0, 0] - b[..., 1, 1]))


def kl_gram(code: QuantumCode, errors: Sequence[LabeledError]) -> KLGram:
    """Restricted Gram data for every ordered pair of errors.

    With the codeword isometry V = [|0_L> |1_L>], block (l, m) is
    (A_l V)^dag (A_m V); all blocks come from one contraction of the stacked
    images A_l V, and the diagonal blocks' eigenvalues from one batched
    ``eigvalsh``.
    """
    labels = tuple(label for label, _ in errors)
    images = np.stack([op for _, op in errors]) @ np.stack(code.codewords, axis=1)
    grams = _gram_blocks(images[None])[0]
    diag = grams[np.arange(len(labels)), np.arange(len(labels))]
    eigs = np.linalg.eigvalsh(0.5 * (diag + diag.conj().swapaxes(1, 2)))
    blocks = {(l, m): grams[i, j] for i, l in enumerate(labels) for j, m in enumerate(labels)}
    diag_eigs = {l: (float(lo), float(hi)) for l, (lo, hi) in zip(labels, eigs)}
    return KLGram(labels, blocks, diag_eigs)


def exact_correctable(
    code: QuantumCode, errors: Sequence[LabeledError], tol: float = EXACT_TOL
) -> CorrectabilityVerdict:
    """Exact Knill-Laflamme verdict for an error set.

    The violation is the worst off-diagonal magnitude or diagonal mismatch
    over all error pairs; the witness is the first pair (l <= m, row-major)
    achieving it, or None when every pair satisfies the conditions exactly.
    """
    labels = tuple(label for label, _ in errors)
    images = np.stack([op for _, op in errors]) @ np.stack(code.codewords, axis=1)
    violations = _pair_violations(_gram_blocks(images[None]))[0]
    k = int(np.argmax(violations))
    worst = float(violations[k])
    witness = _upper_pairs(labels)[k] if worst > 0.0 else None
    return CorrectabilityVerdict(labels, worst <= tol, worst, witness)


def violation_order(
    family: Callable[[float], tuple[QuantumCode, Sequence[LabeledError]]],
    gammas: Sequence[float] = DEFAULT_GAMMAS,
) -> ViolationOrder:
    """Log-log slope of the exact-correctability violation across a sweep.

    Violations below 1e-13 at every sample are reported as exact; a slope of
    at least ~2 marks the set as first-order correctable (violations are
    O(gamma**2) while detection probabilities carry O(gamma) weight).  The
    family must return the same number of errors at every sample.
    """
    gammas = _noise_samples(gammas)
    samples = [family(g) for g in gammas]
    ops = np.array([[op for _, op in errors] for _, errors in samples])
    isometries = np.array([np.stack(code.codewords, axis=1) for code, _ in samples])
    grams = _gram_blocks(ops @ isometries[:, None])
    violations = _pair_violations(grams).max(axis=1)
    if np.all(violations <= ZERO_FLOOR):
        return ViolationOrder(True, None)
    return ViolationOrder(False, float(_fit_slope(gammas, violations)))


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
    (l, m) index order.  The pair slopes and the overall slope (of the
    worst pair violation) come from one fit.
    """
    gammas = _noise_samples(gammas)
    ops = np.array([[op for _, op in weight_le1_ad_errors(g)] for g in gammas])
    violations = _pair_violations(_gram_blocks(ops @ np.stack(pair.as_code().codewords, axis=1)))
    columns = np.column_stack([violations, violations.max(axis=1)])
    slopes = _fit_slope(gammas, columns)
    vanishing = np.all(columns <= ZERO_FLOOR, axis=0)
    failing = np.flatnonzero(~vanishing[:-1] & (slopes[:-1] < FIRST_ORDER_SLOPE))
    slope = None if vanishing[-1] else float(slopes[-1])
    witness = _upper_pairs(WEIGHT_LE1_LABELS)[failing[-1]] if failing.size else None
    return PairClassification(pair.index_pair, not failing.size, witness, slope)


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
