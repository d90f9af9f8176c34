"""Recovery operations: polar-decomposition construction and explicit schemes.

The generic route factors an error restricted to the codespace as
A P = U sqrt(P A^dag A P) and recovers with P U^dag.  The explicit schemes
are the projective repetition-code recovery and one damping family on the
four-qubit code.  Its members differ only in the direction a|0000> + b|1111>
the first operator reads out and in whether the tail is kept: the
channel-adapted recovery keeps it for any (a, b), the code-projected one is
the channel-adapted one at a = b = 1/sqrt(2), and the standard one reads out
the damped image of |0_L> and projects the tail out into its leftover.
Everything that does not depend on (a, b) is built once per process as
read-only arrays: a template stack per member kind, which a member copies
and adds its (a, b) outer products to in place.  A recovery is a
``KrausChannel``: one labeled read-only stack, whose last row is the leftover
when it is labeled "O".
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .channels import KrausChannel
from .codes import QuantumCode, leung4, repetition3
from .fletcher import _check_damping
from .linalg import (
    _Frozen,
    dagger,
    gram_schmidt,
    hermitian_eig,
    ket,
    max_abs,
    psd_sqrt,
    real_rate,
)

KERNEL_TOL = 1e-10
UNIT_CONSTRAINT_TOL = 1e-10  # largest | |a|**2 + |b|**2 - 1 | that fletcher_recovery accepts
PROJECTOR_TOL = 1e-10  # max-norm |P^2 - P| and |P - P^dag| that polar_decompose accepts
RESIDUE_FLOOR = 1e-12  # residue's nonzero-eigenvalue cut; appendix-a needs (1-gamma)^2 above it
EIGENVALUE_MATCH_TOL = 1e-9  # residue's gate on |p_l - largest| and |lambda_l p_l - smallest|
RESIDUE_BAND_SLACK = 1e-10  # residue's bound_ok allows singular values up to the band + this


class PolarDecomposition(_Frozen):
    """Factors A P = U J with U unitary and J = sqrt(P A^dag A P) >= 0."""

    _fields = ("u", "j")


class ResidueResult(_Frozen):
    """Deviation of sqrt(P A^dag A P) from a multiple of the projector."""

    _fields = ("pi", "bound_ok")


class RecoveryOperation(KrausChannel):
    """Labeled recovery operators R_k, optionally with a leftover projector last.

    Built like any channel, ``RecoveryOperation(n_qubits, labels, stack)``; a
    last row labeled "O" is the leftover, and "O" on any other row raises
    ``ValueError``.  The leftover enters the completeness check and the
    fidelity table (as row "O") like any operator, but ``operators()`` and
    ``nonvanishing_terms`` leave it out: at gamma = 0.1 the leftover's
    ("O", 15) term contributes 5.4e-8, above the 1e-14 cutoff, so as an
    ordinary operator 5 it would add (5, 15) to the (0,0)...(4,4), (0,15)
    lattice the paper derives for the standard recovery.  That leftover is
    the damping family's tail, which the code-projected and channel-adapted
    members keep as operators instead.
    """

    def __init__(self, n_qubits: int, labels: tuple[str, ...], stack: np.ndarray):
        super().__init__(n_qubits, labels, stack)
        if "O" in self.labels[:-1]:
            raise ValueError('only the last recovery operator may be the leftover "O"')

    @property
    def leftover(self) -> Optional[np.ndarray]:
        return self.stack[-1] if self.labels[-1] == "O" else None

    def operators(self) -> list[np.ndarray]:
        """Views of the rows of ``stack`` before the leftover."""
        return list(self.stack if self.leftover is None else self.stack[:-1])

    # named in this class's own dict because perfbench/spans.py wraps it through cls.__dict__
    completeness_defect = KrausChannel.completeness_defect


def _complete_basis(seed: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend orthonormal seeds to a full basis, preferring computational axes.

    Candidates are taken in computational index order and Gram-Schmidt
    residuals below the kernel tolerance are discarded, so the completion is
    deterministic and stays on computational axes wherever possible.
    """
    vectors = list(seed) + list(np.eye(dim, dtype=complex))
    full = gram_schmidt(vectors, KERNEL_TOL)
    if len(full) != dim:
        raise ValueError("basis completion failed to reach full rank")
    return full


def _square_pair(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``p`` as complex arrays; ``ValueError`` unless both are d x d for one d."""
    a, p = np.asarray(a, dtype=complex), np.asarray(p, dtype=complex)
    if a.shape != p.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("error and projector dimensions differ")
    return a, p


def polar_decompose(a: np.ndarray, p: np.ndarray) -> PolarDecomposition:
    """Polar factorization of an error against a codespace projector.

    J is the PSD square root of P A^dag A P.  Eigenvectors of J with
    eigenvalue above ``KERNEL_TOL`` map to image directions A P v / lambda; both the
    domain and image orthonormal sets are then completed with computational
    basis vectors in index order, and U pairs the two completions term by
    term.  Off the subspace touched by P and A P this makes U the identity,
    and the construction is deterministic even when A P is singular.
    """
    a, p = _square_pair(a, p)
    if not max_abs([p @ p - p, p - dagger(p)]) <= PROJECTOR_TOL:
        raise ValueError("p must be an orthogonal projector")
    dim = a.shape[0]
    j = psd_sqrt(p @ dagger(a) @ a @ p)
    values, vectors = hermitian_eig(j)
    domain = []
    image = []
    for lam, v in zip(values, vectors.T):
        if lam > KERNEL_TOL:
            domain.append(v)
            image.append((a @ (p @ v)) / lam)
    domain_full = _complete_basis(domain, dim)
    image_full = _complete_basis(image, dim)
    u = np.zeros((dim, dim), dtype=complex)
    for d, e in zip(domain_full, image_full):
        u += np.outer(e, d.conj())
    return PolarDecomposition(u, j)


def residue(a: np.ndarray, p: np.ndarray, p_l: float, lambda_l: float) -> ResidueResult:
    """Residue pi = sqrt(P A^dag A P) - sqrt(lambda * p) P.

    ``p_l`` must be the largest and ``lambda_l * p_l`` the smallest eigenvalue above
    ``RESIDUE_FLOOR`` of the restricted P A^dag A P, each read by ``real_rate``, or
    ``ValueError`` is raised;
    ``bound_ok`` says whether pi's singular values lie in [0, sqrt(p_l) - sqrt(lambda_l p_l)].
    """
    a, p = _square_pair(a, p)
    p_l, lambda_l = real_rate(p_l), real_rate(lambda_l)
    restricted = p @ dagger(a) @ a @ p
    root = psd_sqrt(restricted)
    eigs = np.linalg.eigvalsh(0.5 * (restricted + dagger(restricted)))
    nonzero = eigs[eigs > RESIDUE_FLOOR]
    smallest = float(nonzero.min()) if nonzero.size else 0.0
    if not abs(p_l - eigs[-1]) <= EIGENVALUE_MATCH_TOL:
        raise ValueError("p_l must equal the largest restricted eigenvalue")
    if not abs(lambda_l * p_l - smallest) <= EIGENVALUE_MATCH_TOL:
        raise ValueError("lambda_l * p_l must equal the smallest restricted eigenvalue")
    pi = root - np.sqrt(lambda_l * p_l) * p
    singular = np.linalg.svd(pi, compute_uv=False)
    upper = np.sqrt(p_l) - np.sqrt(lambda_l * p_l)
    bound_ok = bool(np.all(singular <= upper + RESIDUE_BAND_SLACK))
    return ResidueResult(pi, bound_ok)


def _transfer(code: QuantumCode, zero_source: np.ndarray, one_source: np.ndarray) -> np.ndarray:
    """Operator |0_L><s0| + |1_L><s1|."""
    zero, one = code.codewords
    return np.outer(zero, zero_source.conj()) + np.outer(one, one_source.conj())


@lru_cache(maxsize=None)
def repetition_recovery() -> RecoveryOperation:
    """Projective syndrome recovery for the three-qubit repetition code.

    The four operators are independent of the error probability, so the
    recovery is built once per process and shared.
    """
    code = repetition3()
    labels = ("no-flip", "flip-1", "flip-2", "flip-3")
    sources = (("000", "111"), ("100", "011"), ("010", "101"), ("001", "110"))
    return RecoveryOperation(3, labels, [_transfer(code, ket(s0), ket(s1)) for s0, s1 in sources])


# The damping family's fixed directions: single-damping syndromes (sources
# of |0_L> and |1_L>) and the double-damping tail (sources of |0_L> alone).
_SYNDROMES = (("0111", "0100"), ("1011", "1000"), ("1101", "0001"), ("1110", "0010"))
_TAIL = ("1001", "1010", "0101", "0110")
_KEPT_LABELS = ("adapted-1", "adapted-2", "damp-1", "damp-2", "damp-3", "damp-4",
                "damp-23", "damp-24", "damp-13", "damp-14")
_PROJECTED_LABELS = ("adapted-1", "damp-1", "damp-2", "damp-3", "damp-4")


@lru_cache(maxsize=None)
def _damping_fixed() -> tuple:
    """Read-only template stacks of the projected and the kept member, whose rows that (a, b)
    enter hold their fixed parts, and the kets |0000>, |1111> that (a, b) combine."""
    code = leung4()
    zero, one = code.codewords
    syndromes = [_transfer(code, ket(s0), ket(s1)) for s0, s1 in _SYNDROMES]
    tail_rows = [ket(s) for s in _TAIL]
    odd = (ket("0011") - ket("1100")) / np.sqrt(2)
    one_proj = np.outer(one, one.conj())
    leftover = sum(np.outer(row.conj(), row) for row in tail_rows) + np.outer(odd.conj(), odd)
    projected = np.array([one_proj, *syndromes, leftover])
    kept = np.array([one_proj, np.outer(one, odd), *syndromes,
                     *(np.outer(zero, row) for row in tail_rows)])
    parts = (projected, kept, ket("0000"), ket("1111"))
    for part in parts:
        part.flags.writeable = False
    return parts


def _damping_recovery(a: complex, b: complex, keep_tail: bool) -> RecoveryOperation:
    """The damping family on the four-qubit code, for |a|**2 + |b|**2 = 1.

    Operator 1 reads a|0000> + b|1111> out as |0_L> and keeps |1_L>.
    Operator 2 maps the orthogonal combination to |0_L> and
    (|0011> - |1100>)/sqrt(2) to |1_L>.  Four syndrome operators undo
    damping on one qubit, and four rank-one operators send 1001, 1010, 0101
    and 0110 to |0_L>.  Without ``keep_tail``, operator 2 and the rank-one
    four become the leftover projector onto their six rows.
    """
    projected, kept, k0, k1 = _damping_fixed()
    zero = leung4().zero_logical[:, None]
    second_row = b.conjugate() * k0 - a.conjugate() * k1
    # np.outer's x[:, None] * y[None, :], nonzero only where the template is zero: the same bits
    stack = (kept if keep_tail else projected).copy()
    stack[0] += zero * (a * k0 + b * k1)
    if keep_tail:
        stack[1] += zero * second_row
        return RecoveryOperation(4, _KEPT_LABELS, stack)
    stack[-1] += second_row.conj()[:, None] * second_row
    return RecoveryOperation(4, _PROJECTED_LABELS + ("O",), stack)


def standard_ad_recovery(gamma: float) -> RecoveryOperation:
    """Standard recovery for amplitude damping on the four-qubit code.

    The damping family member that reads out the damped image of |0_L>,
    (|0000> + (1-gamma)**2 |1111>) normalized, and projects the tail
    (operator 2 and the four double-damping operators) out into the leftover.
    The codespace projector itself is not among the operators.
    """
    gamma = _check_damping(gamma)
    c2 = (1.0 - gamma) ** 2
    # bit for bit numpy's (1, c2) / norm(|0000> + c2 |1111>), which multiplies by 1 / norm
    scale = 1.0 / math.sqrt(1.0 + c2 * c2)
    return _damping_recovery(complex(scale, 0.0), complex(c2 * scale, 0.0), keep_tail=False)


@lru_cache(maxsize=None)
def cp_recovery() -> RecoveryOperation:
    """Code-projected recovery: the channel-adapted one at a = b = 1/sqrt(2).

    Its first operator is the codespace projector itself.  Built once per
    process and shared.
    """
    return fletcher_recovery(1 / np.sqrt(2), 1 / np.sqrt(2))


def fletcher_recovery(a: complex, b: complex) -> RecoveryOperation:
    """Channel-adapted recovery: the damping family with the tail kept.

    The first operator maps the (a, b)-weighted combination of |0000> and
    |1111> to |0_L> while acting as the projector on the |1_L> sector; the
    second catches the orthogonal combination.  Requires |a|**2 + |b|**2 = 1.
    """
    a = complex(a)
    b = complex(b)
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= UNIT_CONSTRAINT_TOL:
        raise ValueError("parameters must satisfy |a|**2 + |b|**2 = 1")
    return _damping_recovery(a, b, keep_tail=True)
