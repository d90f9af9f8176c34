"""Detectability, Knill-Laflamme correctability, and first-order diagnostics.

An error A is detectable on a code when P A P = lambda P on the codespace.
A set {A_l}, given as the labeled Kraus stack of a ``KrausChannel``, is
exactly correctable when every restricted product
<i_L| A_l^dag A_m |j_L> is delta_ij times a constant.  Approximate
("first order") variants classify the violation by its scaling order in the
noise parameter: a violation of order gamma**2 when the detection amplitudes
are O(1) does not spoil first-order protection, while any O(gamma) or
O(sqrt(gamma)) violation does.  A candidate pair is a code; it is classified
against the weight <= 1 damping errors, the first rows of the enlarged stack.
``_pair_orders`` fits the violation columns of each column pair of a state matrix,
and the worst pair's, in one ``_scaling_orders`` of one Gram under a sweep's weight
<= 1 rows.  A search runs it on the eight candidate states at the 28 shared pairs'
``index_pair``s once per gamma triple, keyed on the three channels ``classify_pair``
still asks ``enlarge`` for; a hand-built pair runs it on its own two codewords.
Every verdict calls ``_gram_blocks`` then ``_pair_violations`` on its images.
Every product is finite: the errors pass ``KrausChannel``'s entry gate, and a
raw error or state ``linalg.bounded``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .channels import KrausChannel, ad_single, enlarge
from .codes import QuantumCode, SelfComplementaryPair, _candidate_states, _pairs
from .fidelity import SERIES_NOISE_MAX
from .linalg import _Frozen, _images, _real_rates, bounded, max_abs

EXACT_TOL = 1e-10  # largest Knill-Laflamme violation exact_correctable calls exact
ZERO_FLOOR = 1e-13  # a violation or residual at or below this counts as zero
FIRST_ORDER_SLOPE = 2.0 - 0.1  # smallest log-log violation slope that is first order
FIRST_ORDER_GAP = 1.0 - 0.1  # smallest slope by which a residual must outgrow lambda
DEFAULT_GAMMAS = (1e-4, 1e-3, 1e-2)

# Enlarged amplitude-damping errors of weight <= 1, the set whose first-order
# correctability defines a "good" four-qubit code; ``enlarge`` orders its labels
# by weight, so these are the first rows of its 4-qubit stack.
WEIGHT_LE1_LABELS = ("0000", "1000", "0100", "0010", "0001")


class DetectabilityReport(NamedTuple):
    lam: complex
    residual: float


class KLGram(_Frozen):
    """All pairwise codespace-restricted 2x2 blocks <i_L|A_l^dag A_m|j_L>."""

    _fields = ("labels", "blocks", "diag_eigs")


class CorrectabilityVerdict(NamedTuple):
    exact: bool
    violation: float
    witness_pair: Optional[tuple[str, str]]


class ViolationOrder(NamedTuple):
    """Log-log scaling estimate of a correctability violation."""

    exact: bool
    slope: Optional[float]

    @property
    def first_order_correctable(self) -> bool:
        return self.exact or (self.slope is not None and self.slope >= FIRST_ORDER_SLOPE)


class PairClassification(NamedTuple):
    index_pair: tuple[int, int]
    good: bool
    witness: Optional[tuple[str, str]]
    slope: Optional[float]


def detectability(code: QuantumCode, a: np.ndarray) -> DetectabilityReport:
    """Residual of P A P = lambda P, lambda = tr(PAP)/tr(P); exactly detectable if <= EXACT_TOL."""
    p = code.projector
    if np.shape(a) != p.shape:
        raise ValueError("code and error dimensions differ")
    pap = p @ bounded(np.asarray(a, dtype=complex), "error operator") @ p
    lam = complex(np.trace(pap) / np.trace(p).real)
    return DetectabilityReport(lam, float(max_abs(pap - lam * p)))


@lru_cache(maxsize=8)
def _slope_design(gammas: tuple[float, ...]) -> tuple[np.ndarray, float, float]:
    """Design, slope scale and rcond of ``np.polyfit(log gammas, y, 1)``, whose steps a fit takes."""
    lhs = np.vander(np.log(np.asarray(gammas, dtype=float)), 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.flags.writeable = False
    return lhs, scale[0], len(gammas) * np.finfo(float).eps


def _fit_slope(gammas: Sequence[float], values) -> np.ndarray:
    """Log-log slope of a (G,) array, or of each column of a (G, k) one; zeros clamp to 1e-300."""
    lhs, scale, rcond = _slope_design(tuple(gammas))
    logv = np.log(np.maximum(np.asarray(values, dtype=float), 1e-300))
    coef, _, rank, _ = np.linalg.lstsq(lhs, logv, rcond)
    if rank < 2:
        raise ValueError("noise samples %r are too close to fix a log-log slope" % (tuple(gammas),))
    return coef[0] / scale


def _noise_samples(gammas: Sequence[float]) -> tuple[float, ...]:
    gammas = tuple(_real_rates(gammas, "noise samples"))
    if len(set(gammas)) < 2 or not all(0.0 < g <= SERIES_NOISE_MAX for g in gammas):
        raise ValueError("need >= 2 distinct noise samples in (0, 1e-2], got %r" % (gammas,))
    return gammas


def detectable_to_first_order(family: Callable[[float], tuple[QuantumCode, np.ndarray]]) -> bool:
    """Classify detectability by scaling order over the ``DEFAULT_GAMMAS`` sweep.

    The single error is detectable to first order when its residual is
    either identically zero or its log-log slope exceeds the detection
    amplitude lambda's by ``FIRST_ORDER_GAP``, about one order.  This reproduces
    the sharp verdicts of the damping analysis: a residual of order gamma**2
    on top of lambda = O(1) passes, while an error whose entire amplitude is
    O(gamma**2) (so residual ~ lambda) fails.
    """
    columns = np.array([(rep.residual, abs(rep.lam)) for rep in
                        (detectability(*family(g)) for g in DEFAULT_GAMMAS)])
    zero = columns <= ZERO_FLOOR
    if zero.any():  # all residuals zero passes; any other zero leaves no slope to fit
        return bool(zero[:, 0].all())
    residual_slope, lam_slope = _fit_slope(DEFAULT_GAMMAS, columns)
    return residual_slope - lam_slope >= FIRST_ORDER_GAP


def _gram_blocks(images: np.ndarray) -> np.ndarray:
    """Blocks (A_l V)^dag (A_m V), (G, L, L, k, k), of images A_l V stacked as (G, L, d, k)."""
    # Laid out as (G, L k, d) rows, one 3-index einsum sums over contiguous d and
    # forms the direct contraction's products in its order: the same bits, faster.
    g, n, d, k = images.shape
    x = np.ascontiguousarray(images.transpose(0, 1, 3, 2)).reshape(g, n * k, d)
    return np.einsum("gpa,gqa->gpq", x.conj(), x).reshape(g, n, k, n, k).transpose(0, 1, 3, 2, 4)


@lru_cache(maxsize=None)
def _upper_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the pairs i <= j < n, row-major, built once per n."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _upper_pair(labels: tuple[str, ...], k: int) -> tuple[str, str]:
    """The labels of pair k in ``_upper_index`` order."""
    return tuple(labels[index[k]] for index in _upper_index(len(labels)))


def _pair_violations(grams: np.ndarray) -> np.ndarray:
    """max(|b01|, |b10|, |b00 - b11|) of each block, in ``_upper_index`` order.

    ``grams`` is (..., L, L, 2, 2); the result is (..., L (L + 1) / 2).
    """
    rows, cols = _upper_index(grams.shape[-3])
    b = grams[..., rows, cols, :, :]
    off = np.maximum(np.abs(b[..., 0, 1]), np.abs(b[..., 1, 0]))
    return np.maximum(off, np.abs(b[..., 0, 0] - b[..., 1, 1]))


def _scaling_orders(gammas: tuple[float, ...], violations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope and all-zero flag, (..., P + 1), of each pair's column of a sweep's (G, ..., P) pair
    violations in ``_upper_index`` order, then of the worst pair's: one fit."""
    columns = np.concatenate([violations, violations.max(axis=-1, keepdims=True)], axis=-1)
    shape, columns = columns.shape[1:], columns.reshape(len(gammas), -1)
    return _fit_slope(gammas, columns).reshape(shape), (columns <= ZERO_FLOOR).all(axis=0).reshape(shape)


def kl_gram(code: QuantumCode, errors: KrausChannel) -> KLGram:
    """Restricted Gram data for every ordered pair of the channel's Kraus operators.

    With the codeword isometry V = [|0_L> |1_L>], block (l, m) is
    (A_l V)^dag (A_m V); all blocks come from one contraction of the stacked
    images A_l V, and the diagonal blocks' eigenvalues from one batched
    ``eigvalsh``.
    """
    labels = errors.labels
    grams = _gram_blocks(_images(errors.stack, code.isometry)[None])[0]
    diag = grams[np.arange(len(labels)), np.arange(len(labels))]
    eigs = np.linalg.eigvalsh(0.5 * (diag + diag.conj().swapaxes(1, 2)))
    blocks = {(l, m): grams[i, j] for i, l in enumerate(labels) for j, m in enumerate(labels)}
    diag_eigs = {l: (float(lo), float(hi)) for l, (lo, hi) in zip(labels, eigs)}
    return KLGram(labels, blocks, diag_eigs)


def exact_correctable(code: QuantumCode, errors: KrausChannel) -> CorrectabilityVerdict:
    """Exact Knill-Laflamme verdict for an error set, the Kraus operators of ``errors``.

    The violation is the worst off-diagonal magnitude or diagonal mismatch
    over all error pairs, and the set is exactly correctable when it is at
    most ``EXACT_TOL``; the witness is the first pair (l <= m, row-major)
    achieving it, or None when every pair satisfies the conditions exactly.
    """
    violations = _pair_violations(_gram_blocks(_images(errors.stack, code.isometry)[None]))[0]
    k = int(np.argmax(violations))
    worst = float(violations[k])
    witness = _upper_pair(errors.labels, k) if worst > 0.0 else None
    return CorrectabilityVerdict(worst <= EXACT_TOL, worst, witness)


def violation_order(
    family: Callable[[float], tuple[QuantumCode, KrausChannel]],
    gammas: Sequence[float] = DEFAULT_GAMMAS,
) -> ViolationOrder:
    """Log-log slope of the exact-correctability violation across a sweep.

    Violations at or below ``ZERO_FLOOR`` at every sample are reported as exact; a slope of
    at least ~2 marks the set as first-order correctable (violations are
    O(gamma**2) while detection probabilities carry O(gamma) weight).  The
    family maps gamma to a code and an error channel, with the same number
    of Kraus operators at every sample.  Samples too close to fix a slope
    raise ``ValueError``, also for an exact set.
    """
    gammas = _noise_samples(gammas)
    images = np.array([_images(e.stack, c.isometry) for c, e in map(family, gammas)])
    slopes, vanishing = _scaling_orders(gammas, _pair_violations(_gram_blocks(images)))
    return ViolationOrder(True, None) if vanishing[-1] else ViolationOrder(False, float(slopes[-1]))


def _weight_le1_rows(enlarged: KrausChannel) -> np.ndarray:
    """The operators of a 4-qubit enlarged channel labeled ``WEIGHT_LE1_LABELS``, a read-only view."""
    return enlarged.stack[:len(WEIGHT_LE1_LABELS)]


def weight_le1_ad_errors(gamma: float) -> KrausChannel:
    """The five enlarged damping errors of weight <= 1 on four qubits, as one channel."""
    return KrausChannel(4, WEIGHT_LE1_LABELS, _weight_le1_rows(enlarge(ad_single(gamma), 4)))


def _pair_orders(gammas: tuple[float, ...], enlarged: Sequence[KrausChannel], states: np.ndarray,
                 pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(P, 16) ``_scaling_orders`` of each 1-based (i, j) column pair of a (16, S) state matrix, each
    from its blocks at columns i - 1, j - 1 of one (G, 5, 5, S, S) Gram of the states under the
    sweep's weight <= 1 rows."""
    rows = np.stack([_weight_le1_rows(channel) for channel in enlarged])
    gram, columns = _gram_blocks(_images(rows, states)), np.subtract(pairs, 1)
    blocks = np.moveaxis(gram[..., columns[:, :, None], columns[:, None, :]], -3, 1)
    return _scaling_orders(gammas, _pair_violations(blocks))


@lru_cache(maxsize=1)
def _search_orders(gammas: tuple[float, ...], *enlarged: KrausChannel) -> dict:
    """Each shared pair's read-only (16,) slopes and flags, keyed by the pair (pairs compare by
    identity): one ``_pair_orders`` of the candidate states at the 28 ``index_pair``s.  Keyed on
    the sweep's channels by identity."""
    pairs = _pairs()
    slopes, vanishing = _pair_orders(gammas, enlarged, _candidate_states(), [p.index_pair for p in pairs])
    slopes.flags.writeable = vanishing.flags.writeable = False
    return dict(zip(pairs, zip(slopes, vanishing)))


def classify_pair(
    pair: SelfComplementaryPair, gammas: Sequence[float] = DEFAULT_GAMMAS
) -> PairClassification:
    """Good/bad verdict for a candidate self-complementary codeword pair.

    A pair is good when the weight <= 1 damping error set is first-order
    correctable.  Every error pair (l, m) is classified separately by its
    violation slope; the reported witness is the last failing pair in
    (l, m) index order.  The pair slopes and the overall slope (of the
    worst pair violation, ``violation_order``'s) come from one fit.
    """
    if not isinstance(pair, SelfComplementaryPair):
        raise ValueError("classify_pair expects a SelfComplementaryPair, got %s" % type(pair).__name__)
    gammas = _noise_samples(gammas)
    enlarged = [enlarge(ad_single(g), 4) for g in gammas]
    search = _search_orders(gammas, *enlarged)
    slopes, vanishing = search[pair] if pair in search else (
        fit[0] for fit in _pair_orders(gammas, enlarged, pair.isometry, [(1, 2)]))
    failing = np.flatnonzero(~vanishing[:-1] & (slopes[:-1] < FIRST_ORDER_SLOPE))
    slope = None if vanishing[-1] else float(slopes[-1])
    witness = _upper_pair(WEIGHT_LE1_LABELS, failing[-1]) if failing.size else None
    return PairClassification(pair.index_pair, not failing.size, witness, slope)


def detection_probability(code: QuantumCode, errors: KrausChannel, state: np.ndarray) -> float:
    """Total detection probability sum_k <psi|A_k^dag A_k|psi> of the channel's Kraus operators.

    ``state`` must be a (d,) vector in the codespace that passes ``linalg.bounded``.
    """
    state = bounded(np.asarray(state, dtype=complex), "state")
    if not code.contains(state):
        raise ValueError("state does not lie in the codespace")
    return sum(float(np.vdot(v, v).real) for v in _images(errors.stack, state[:, None])[..., 0])
