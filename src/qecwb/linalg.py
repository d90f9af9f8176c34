"""Dense complex linear algebra for few-qubit operators.

Everything here works on plain ``numpy`` arrays with ``complex128`` entries.
States are 1-D arrays, operators are square 2-D arrays; dimensions are at
most 2**4 = 16 in this package, so no attempt is made at sparsity or
scalability.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

# Tolerances.  Double precision leaves several digits of headroom for
# gamma**2 effects down to gamma ~ 1e-4.
HERMITICITY_TOL = 1e-10  # max-norm |M - M^dag| that hermitian_eig accepts
EIGENVALUE_CLAMP_TOL = 1e-10  # psd_sqrt sets eigenvalues below this to zero
NEGATIVE_EIGENVALUE_TOL = 1e-8  # psd_sqrt raises on an eigenvalue below -this
PHASE_PIVOT_TOL = 1e-12  # hermitian_eig makes each eigenvector's first entry above this real > 0
ORTHONORMAL_TOL = 1e-10  # max-norm |B^dag B - I| that restrict accepts of its basis B
WEIGHT_BOUND = 1e140  # largest sum |m_i|**2 that bounded admits; its square is still finite

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class _Frozen:
    """Base of the array holders: ``__init__`` binds one value per name in ``_fields``, in
    order (a checking constructor updates ``vars(self)`` once instead), ``==`` is identity,
    assignment and deletion raise ``AttributeError`` (``cached_property`` writes ``__dict__``),
    and the repr lists each subclass's ``_fields`` as ``Name(field=value, ...)``."""

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields" % (type(self).__qualname__, len(self._fields)))
        vars(self).update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


def qubit_count(n) -> int:
    """``n`` as an int; ``ValueError`` unless a positive integer (numpy's too, not bool or 3.0)."""
    # an exact int skips the slower ABC test
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, numbers.Integral)) or n < 1:
        raise ValueError("the number of qubits must be a positive integer")
    return int(n)


def real_rate(x) -> float:
    """``x`` as a Python float, so a narrow numpy float computes in double precision; NaN, which
    every range check refuses, unless a real number (numpy's too, not bool); floats skip the ABC."""
    real = isinstance(x, float) or not isinstance(x, bool) and isinstance(x, numbers.Real)
    return float(x) if real else math.nan


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def max_abs(m: np.ndarray) -> float:
    """Largest entrywise modulus (the max norm used for all certificates)."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.abs(m).max())


def assert_finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(np.asarray(m).view(float))):
        raise ValueError("non-finite entries")
    return m


def bounded(m: np.ndarray, what: str) -> np.ndarray:
    """``m``, or ``ValueError`` naming ``what`` unless sum |m_i|**2 <= WEIGHT_BOUND (NaN fails)."""
    if not np.vdot(m, m).real <= WEIGHT_BOUND:
        raise ValueError("%s must be finite, with squared moduli summing to at most %g"
                         % (what, WEIGHT_BOUND))
    return m


def completeness_defect(ops) -> float:
    """Max-norm deviation of sum_k A_k^dag A_k from I; pass the A_k^dag for unitality."""
    stack = np.asarray(ops, dtype=complex)
    gram = (stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0)
    gram.reshape(-1)[:: stack.shape[-1] + 1] -= 1.0  # the diagonal, in place
    return float(np.abs(gram).max())


def _images(ops: np.ndarray, isometry: np.ndarray) -> np.ndarray:
    """Images A_l V, (..., d, k), of a (..., d, d) stack: one (... d, d) @ (d, k) product."""
    if ops.shape[-1] != isometry.shape[0]:
        raise ValueError("code and error dimensions differ")
    return (ops.reshape(-1, ops.shape[-1]) @ isometry).reshape(ops.shape[:-1] + (-1,))


def ket(bits: str) -> np.ndarray:
    """Computational basis state for a bitstring, leftmost bit most significant."""
    index = int(bits, 2)
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[index] = 1.0
    return v


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above ``PHASE_PIVOT_TOL`` is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > PHASE_PIVOT_TOL)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def hermitian_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues ascending
    and orthonormal eigenvector columns.  Each eigenvector is normalized so
    that its first nonzero component is real positive, which makes the
    decomposition reproducible.  Rejects non-square input, input further
    than ``HERMITICITY_TOL`` from Hermitian in the max norm (NaN entries
    included), and non-finite eigenvalues or eigenvectors.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not max_abs(m - dagger(m)) <= HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within %g" % HERMITICITY_TOL)
    values, vectors = np.linalg.eigh(m)
    return assert_finite(values), assert_finite(_fix_phases(vectors))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-``NEGATIVE_EIGENVALUE_TOL``, ``EIGENVALUE_CLAMP_TOL``) are set
    to zero; anything more negative signals genuinely non-PSD input and raises.
    """
    values, vectors = hermitian_eig(m)
    if values.min(initial=0.0) < -NEGATIVE_EIGENVALUE_TOL:
        raise ValueError("matrix has a negative eigenvalue: %g" % values.min())
    # zero everything below the clamp: sqrt would amplify O(eps) noise to O(1e-8)
    values = np.where(values < EIGENVALUE_CLAMP_TOL, 0.0, values)
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
    m = np.asarray(m, dtype=complex)
    b = np.column_stack([np.asarray(v, dtype=complex) for v in basis])
    if b.shape[0] != m.shape[1]:
        raise ValueError("basis dimension does not match matrix")
    if not max_abs(dagger(b) @ b - np.eye(b.shape[1])) <= ORTHONORMAL_TOL:
        raise ValueError("basis is not orthonormal")
    return dagger(b) @ m @ b

