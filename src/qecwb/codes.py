"""Concrete quantum codes and the four-qubit self-complementary family.

A code is a pair of orthonormal logical codewords; the projector onto their
span is cached on construction.  A code holds read-only copies of its arrays,
so the named codes, built once per process, are safe to share.  The
four-qubit self-complementary states (|a> + |a-complement>)/sqrt(2) come in
eight flavors, giving 28 candidate codeword pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from .linalg import ket, max_abs, projector

# Bitstrings generating the eight self-complementary four-qubit states, in
# the conventional listing order (index 1..8).
SELF_COMPLEMENTARY_STRINGS = (
    "0000", "1000", "0100", "0010", "0001", "1100", "1010", "1001",
)


@dataclass(frozen=True)
class QuantumCode:
    """A [[n, 1]] code given by its two logical codewords."""

    n_qubits: int
    zero_logical: np.ndarray
    one_logical: np.ndarray
    projector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = 2 ** self.n_qubits
        zero = np.array(self.zero_logical, dtype=complex)
        one = np.array(self.one_logical, dtype=complex)
        if zero.shape != (dim,) or one.shape != (dim,):
            raise ValueError("codeword dimension mismatch")
        for v in (zero, one):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("codewords must be normalized")
        if abs(np.vdot(zero, one)) > 1e-12:
            raise ValueError("codewords must be orthogonal")
        proj = projector([zero, one])
        for name, value in (("zero_logical", zero), ("one_logical", one), ("projector", proj)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def codewords(self) -> tuple[np.ndarray, np.ndarray]:
        return self.zero_logical, self.one_logical

    def contains(self, state: np.ndarray, tol: float = 1e-10) -> bool:
        state = np.asarray(state, dtype=complex)
        return max_abs(self.projector @ state - state) <= tol


@dataclass(frozen=True)
class SelfComplementaryPair:
    """One of the 28 candidate (i, j) codeword pairs, indices 1-based."""

    index_pair: tuple[int, int]
    codewords: tuple[np.ndarray, np.ndarray]

    def as_code(self) -> QuantumCode:
        return QuantumCode(4, self.codewords[0], self.codewords[1])


def _equal_superposition(bits: str) -> np.ndarray:
    comp = "".join("1" if c == "0" else "0" for c in bits)
    return (ket(bits) + ket(comp)) / np.sqrt(2)


@lru_cache(maxsize=None)
def repetition3() -> QuantumCode:
    """Three-qubit repetition code |0> -> |000>, |1> -> |111>."""
    return QuantumCode(3, ket("000"), ket("111"))


@lru_cache(maxsize=None)
def leung4() -> QuantumCode:
    """Four-qubit code (|0000>+|1111>, |0011>+|1100>)/sqrt(2)."""
    return QuantumCode(4, _equal_superposition("0000"), _equal_superposition("0011"))


@lru_cache(maxsize=None)
def grassl4() -> QuantumCode:
    """Four-qubit erasure code (|0000>+|1111>, |1001>+|0110>)/sqrt(2)."""
    return QuantumCode(4, _equal_superposition("0000"), _equal_superposition("1001"))


@lru_cache(maxsize=None)
def third4() -> QuantumCode:
    """The remaining good four-qubit pair (|0000>+|1111>, |0101>+|1010>)/sqrt(2)."""
    return QuantumCode(4, _equal_superposition("0000"), _equal_superposition("0101"))


def enumerate_pairs() -> list[SelfComplementaryPair]:
    """All 28 ordered-index pairs (i, j), i < j, from the eight-state basis."""
    basis = [_equal_superposition(bits) for bits in SELF_COMPLEMENTARY_STRINGS]
    return [
        SelfComplementaryPair((i + 1, j + 1), (basis[i], basis[j]))
        for i, j in combinations(range(len(basis)), 2)
    ]


def permutation_equivalent(
    c1: QuantumCode, c2: QuantumCode, tol: float = 1e-10
) -> Optional[tuple[int, ...]]:
    """Search all qubit permutations mapping the codespace of c1 onto c2's.

    Compares codespace projectors rather than individual codewords, so a
    logical relabeling |0_L> <-> |1_L> does not break equivalence.  Returns
    the first matching permutation (0-based positions) or None.
    """
    if c1.n_qubits != c2.n_qubits:
        raise ValueError("codes act on different qubit counts")
    n = c1.n_qubits
    # As a (2,)*2n tensor the projector's row and column axes are the qubits;
    # permuting both the same way is M P M^dag for the qubit permutation M.
    tensor = c1.projector.reshape((2,) * (2 * n))
    for perm in permutations(range(n)):
        moved = tensor.transpose(perm + tuple(n + p for p in perm)).reshape(c1.projector.shape)
        if max_abs(moved - c2.projector) <= tol:
            return perm
    return None
