"""Dense complex linear algebra for few-qubit operators.

Everything here works on plain ``numpy`` arrays with ``complex128`` entries.
States are 1-D arrays, operators are square 2-D arrays; dimensions are at
most 2**4 = 16 in this package, so no attempt is made at sparsity or
scalability.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Default tolerances.  Double precision leaves several digits of headroom
# for gamma**2 effects down to gamma ~ 1e-4.
HERMITICITY_TOL = 1e-10
EIGENVALUE_CLAMP_TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def max_abs(m: np.ndarray) -> float:
    """Largest entrywise modulus (the max norm used for all certificates)."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def assert_finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(np.asarray(m).view(float))):
        raise ValueError("non-finite entries")
    return m


def completeness_defect(ops) -> float:
    """Max-norm deviation of sum_k A_k^dag A_k from I; pass the A_k^dag for unitality."""
    stack = np.asarray(ops, dtype=complex)
    gram = (stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0)
    return max_abs(gram - np.eye(stack.shape[-1]))


def ket(bits: str) -> np.ndarray:
    """Computational basis state for a bitstring, leftmost bit most significant."""
    index = int(bits, 2)
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[index] = 1.0
    return v


def _fix_phases(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate each column so its first component above tol is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def hermitian_eig(m: np.ndarray, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues ascending
    and orthonormal eigenvector columns.  Each eigenvector is normalized so
    that its first nonzero component is real positive, which makes the
    decomposition reproducible.  Rejects non-square or non-Hermitian input.
    """
    m = as_matrix(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if max_abs(m - dagger(m)) > tol:
        raise ValueError("matrix is not Hermitian within %g" % tol)
    values, vectors = np.linalg.eigh(m)
    return values, assert_finite(_fix_phases(vectors))


def psd_sqrt(m: np.ndarray, clamp_tol: float = EIGENVALUE_CLAMP_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[-1e-8, 0)`` are clamped to zero; anything more negative
    signals genuinely non-PSD input and raises.
    """
    values, vectors = hermitian_eig(m)
    if values.min(initial=0.0) < -1e-8:
        raise ValueError("matrix has a negative eigenvalue: %g" % values.min())
    # zero everything below the clamp: sqrt would amplify O(eps) noise to O(1e-8)
    values = np.where(values < clamp_tol, 0.0, values)
    root = (vectors * np.sqrt(values)) @ dagger(vectors)
    # enforce exact Hermiticity against rounding
    return assert_finite(0.5 * (root + dagger(root)))


def gram_schmidt(vectors: Sequence[np.ndarray], tol: float) -> list[np.ndarray]:
    """Orthonormalize a sequence of vectors in the given order.

    Vectors whose residual norm after projection falls below ``tol`` are
    dropped, so the output spans the input.  Projections are applied twice,
    which keeps the result orthonormal to ~1e-15 even for nearly dependent
    input.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).copy()
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm > tol:
            basis.append(w / norm)
    return basis


def restrict(m: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of ``m`` restricted to an orthonormal basis: entries <b_i|m|b_j>."""
    m = as_matrix(m)
    b = np.column_stack([np.asarray(v, dtype=complex) for v in basis])
    if b.shape[0] != m.shape[1]:
        raise ValueError("basis dimension does not match matrix")
    if max_abs(dagger(b) @ b - np.eye(b.shape[1])) > 1e-10:
        raise ValueError("basis is not orthonormal")
    return dagger(b) @ m @ b


def projector(states: Sequence[np.ndarray]) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal states."""
    dim = len(states[0])
    p = np.zeros((dim, dim), dtype=complex)
    for s in states:
        s = np.asarray(s, dtype=complex)
        p += np.outer(s, s.conj())
    return p
