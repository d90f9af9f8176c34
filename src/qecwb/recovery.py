"""Recovery operations: polar-decomposition construction and explicit schemes.

The generic route factors an error restricted to the codespace as
A P = U sqrt(P A^dag A P) and recovers with P U^dag.  The explicit schemes
are the projective repetition-code recovery, the damping-adapted standard
recovery, the code-projected recovery whose first operator is the codespace
projector itself, and the two-parameter channel-adapted variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .codes import QuantumCode, leung4, repetition3
from .linalg import (
    completeness_defect,
    dagger,
    gram_schmidt,
    hermitian_eig,
    ket,
    max_abs,
    psd_sqrt,
)

KERNEL_TOL = 1e-10


@dataclass(frozen=True)
class PolarDecomposition:
    """Factors A P = U J with U unitary and J = sqrt(P A^dag A P) >= 0."""

    u: np.ndarray
    j: np.ndarray


@dataclass(frozen=True)
class ResidueResult:
    """Deviation of sqrt(P A^dag A P) from a multiple of the projector."""

    pi: np.ndarray
    bound_ok: bool


@dataclass(frozen=True)
class RecoveryOperation:
    """Labeled recovery operators, optionally with a leftover projector.

    The leftover stays apart from ``ops`` on purpose.  It enters the
    completeness check and the fidelity table (as row "O") like any operator,
    but ``nonvanishing_terms`` lists recovery operators only: at gamma = 0.1
    the leftover's ("O", 15) term contributes 5.4e-8, above the 1e-14 cutoff,
    so as an ordinary operator 5 it would add (5, 15) to the (0,0)...(4,4),
    (0,15) lattice the paper derives for the standard recovery.
    """

    ops: tuple[tuple[str, np.ndarray], ...]
    leftover: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.ops[0][1].shape[0]

    def operators(self) -> list[np.ndarray]:
        return [op for _, op in self.ops]

    def completeness_defect(self) -> float:
        """Max-norm deviation of sum(R^dag R) (+ O^dag O) from the identity."""
        ops = self.operators()
        if self.leftover is not None:
            ops.append(self.leftover)
        return completeness_defect(ops)


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


def polar_decompose(a: np.ndarray, p: np.ndarray) -> PolarDecomposition:
    """Polar factorization of an error against a codespace projector.

    J is the PSD square root of P A^dag A P.  Eigenvectors of J with
    eigenvalue above 1e-10 map to image directions A P v / lambda; both the
    domain and image orthonormal sets are then completed with computational
    basis vectors in index order, and U pairs the two completions term by
    term.  Off the subspace touched by P and A P this makes U the identity,
    and the construction is deterministic even when A P is singular.
    """
    a = np.asarray(a, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if max_abs(p @ p - p) > 1e-10 or max_abs(p - dagger(p)) > 1e-10:
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

    ``p_l`` is the largest and ``lambda_l * p_l`` the smallest eigenvalue of
    the restricted P A^dag A P; the singular values of pi must lie in
    [0, sqrt(p_l) - sqrt(lambda_l p_l)].
    """
    a = np.asarray(a, dtype=complex)
    p = np.asarray(p, dtype=complex)
    restricted = p @ dagger(a) @ a @ p
    root = psd_sqrt(restricted)
    eigs = np.linalg.eigvalsh(0.5 * (restricted + dagger(restricted)))
    nonzero = eigs[eigs > 1e-12]
    smallest = float(nonzero.min()) if nonzero.size else 0.0
    if abs(lambda_l * p_l - smallest) > 1e-9:
        raise ValueError("lambda_l * p_l must equal the smallest restricted eigenvalue")
    pi = root - np.sqrt(lambda_l * p_l) * p
    singular = np.linalg.svd(pi, compute_uv=False)
    upper = np.sqrt(p_l) - np.sqrt(lambda_l * p_l)
    bound_ok = bool(np.all(singular <= upper + 1e-10) and np.all(singular >= -1e-10))
    return ResidueResult(pi, bound_ok)


def _transfer(code: QuantumCode, zero_source: np.ndarray, one_source: Optional[np.ndarray]) -> np.ndarray:
    """Operator |0_L><s0| (+ |1_L><s1|)."""
    zero, one = code.codewords
    op = np.outer(zero, zero_source.conj())
    if one_source is not None:
        op += np.outer(one, one_source.conj())
    return op


def _shared(recovery: RecoveryOperation) -> RecoveryOperation:
    """Make every operator read-only, for a recovery built once and shared."""
    for op in recovery.operators():
        op.flags.writeable = False
    return recovery


@lru_cache(maxsize=None)
def repetition_recovery() -> RecoveryOperation:
    """Projective syndrome recovery for the three-qubit repetition code.

    The four operators are independent of the error probability, so the
    recovery is built once per process and shared, with read-only operators.
    """
    code = repetition3()
    sources = [
        ("no-flip", ket("000"), ket("111")),
        ("flip-1", ket("100"), ket("011")),
        ("flip-2", ket("010"), ket("101")),
        ("flip-3", ket("001"), ket("110")),
    ]
    ops = tuple((lab, _transfer(code, s0, s1)) for lab, s0, s1 in sources)
    return _shared(RecoveryOperation(ops))


def damped_plus_state(gamma: float) -> np.ndarray:
    """Normalized |0000> + (1-gamma)**2 |1111>, the damped image of |0_L>."""
    v = ket("0000") + (1.0 - gamma) ** 2 * ket("1111")
    return v / np.linalg.norm(v)


def damped_minus_state(gamma: float) -> np.ndarray:
    """Normalized (1-gamma)**2 |0000> - |1111>, orthogonal to the damped image."""
    v = (1.0 - gamma) ** 2 * ket("0000") - ket("1111")
    return v / np.linalg.norm(v)


def standard_ad_recovery(gamma: float) -> RecoveryOperation:
    """Syndrome recovery adapted to amplitude damping on the four-qubit code.

    Built on the damping-dependent orthonormal basis whose first vector is
    the damped image of |0_L>; six leftover directions form the projector
    term.  The codespace projector itself is not among the operators.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("damping rate must lie in [0, 1)")
    code = leung4()
    v = [
        damped_plus_state(gamma),
        code.one_logical,
        ket("0111"),
        ket("0100"),
        ket("1011"),
        ket("1000"),
        ket("1101"),
        ket("0001"),
        ket("1110"),
        ket("0010"),
    ]
    leftovers = [
        ket("0101"),
        ket("0110"),
        ket("1001"),
        ket("1010"),
        damped_minus_state(gamma),
        (ket("0011") - ket("1100")) / np.sqrt(2),
    ]
    labels = ("syndrome-0", "syndrome-1", "syndrome-2", "syndrome-3", "syndrome-4")
    ops = tuple(
        (labels[k], _transfer(code, v[2 * k], v[2 * k + 1])) for k in range(5)
    )
    leftover = sum(np.outer(o, o.conj()) for o in leftovers)
    return RecoveryOperation(ops, leftover=leftover)


@lru_cache(maxsize=None)
def cp_recovery() -> RecoveryOperation:
    """Code-projected recovery: ten operators, the first being the projector.

    Built once per process and shared, with read-only operators.
    """
    code = leung4()
    zero, one = code.codewords
    r2_zero = (ket("0000") - ket("1111")) / np.sqrt(2)
    r2_one = (ket("0011") - ket("1100")) / np.sqrt(2)
    ops = [
        ("project", code.projector),
        ("reflect", np.outer(zero, r2_zero.conj()) + np.outer(one, r2_one.conj())),
    ]
    ops += _damping_syndrome_ops(code)
    return _shared(RecoveryOperation(tuple(ops)))


def _damping_syndrome_ops(code: QuantumCode) -> list[tuple[str, np.ndarray]]:
    """The eight transfer operators shared by the code-projected family."""
    ops = [
        ("damp-1", _transfer(code, ket("0111"), ket("0100"))),
        ("damp-2", _transfer(code, ket("1011"), ket("1000"))),
        ("damp-3", _transfer(code, ket("1101"), ket("0001"))),
        ("damp-4", _transfer(code, ket("1110"), ket("0010"))),
        ("damp-23", _transfer(code, ket("1001"), None)),
        ("damp-24", _transfer(code, ket("1010"), None)),
        ("damp-13", _transfer(code, ket("0101"), None)),
        ("damp-14", _transfer(code, ket("0110"), None)),
    ]
    return ops


def fletcher_recovery(a: complex, b: complex) -> RecoveryOperation:
    """Channel-adapted recovery with tunable leading operators.

    The first operator maps the (a, b)-weighted combination of |0000> and
    |1111> to |0_L> while acting as the projector on the |1_L> sector; the
    second catches the orthogonal combination.  Requires |a|**2 + |b|**2 = 1.
    """
    a = complex(a)
    b = complex(b)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-10:
        raise ValueError("parameters must satisfy |a|**2 + |b|**2 = 1")
    code = leung4()
    zero, one = code.codewords
    # rows of the operators; np.outer applies no conjugation of its own
    r1_row = a * ket("0000") + b * ket("1111")
    r2_row = b.conjugate() * ket("0000") - a.conjugate() * ket("1111")
    r1 = np.outer(zero, r1_row) + np.outer(one, one.conj())
    r2 = np.outer(zero, r2_row) + np.outer(one, (ket("0011") - ket("1100")) / np.sqrt(2))
    ops = [("adapted-1", r1), ("adapted-2", r2)] + _damping_syndrome_ops(code)
    return RecoveryOperation(tuple(ops))
