"""Concrete quantum codes and the four-qubit self-complementary family.

A code is a pair of orthonormal logical codewords; the isometry
V = [|0_L> |1_L>] and the projector V V^dag are built on construction.  A
code holds read-only copies of its arrays, so the named codes, built once per
process, are safe to share.  The four-qubit self-complementary states
(|a> + |a-complement>)/sqrt(2), the columns of one (16, 8) matrix, give 28
candidate codes (each a ``QuantumCode`` with its index pair), built once too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from .linalg import _Frozen, bounded, dagger, ket, max_abs, qubit_count

CODESPACE_TOL = 1e-10  # max-norm gate of codespace membership and of equal projectors
CODEWORD_TOL = 1e-12  # largest deviation of a codeword norm from 1 and of <0_L|1_L> from 0

# Bitstrings generating the eight self-complementary four-qubit states, in
# the conventional listing order (index 1..8).
SELF_COMPLEMENTARY_STRINGS = (
    "0000", "1000", "0100", "0010", "0001", "1100", "1010", "1001",
)


class QuantumCode(_Frozen):
    """A [[n, 1]] code given by its two logical codewords; it also holds, outside its repr,
    the projector V V^dag and the isometry V, (d, 2) with columns |0_L>, |1_L>."""

    _fields = ("n_qubits", "zero_logical", "one_logical")

    def __init__(self, n_qubits: int, zero_logical: np.ndarray, one_logical: np.ndarray):
        n_qubits = qubit_count(n_qubits)
        dim = 2 ** n_qubits
        zero = np.array(zero_logical, dtype=complex)
        one = np.array(one_logical, dtype=complex)
        if zero.shape != (dim,) or one.shape != (dim,):
            raise ValueError("codeword dimension mismatch")
        for v in (zero, one):
            if not abs(np.linalg.norm(bounded(v, "codewords")) - 1.0) <= CODEWORD_TOL:
                raise ValueError("codewords must be normalized")
        if not abs(np.vdot(zero, one)) <= CODEWORD_TOL:
            raise ValueError("codewords must be orthogonal")
        iso = np.stack([zero, one], axis=1)
        projector = iso @ dagger(iso)
        for value in (zero, one, projector, iso):
            value.flags.writeable = False
        vars(self).update(n_qubits=n_qubits, zero_logical=zero, one_logical=one,
                          projector=projector, isometry=iso)

    @property
    def codewords(self) -> tuple[np.ndarray, np.ndarray]:
        return self.zero_logical, self.one_logical

    def contains(self, state: np.ndarray) -> bool:
        """Whether P|state> equals |state> to ``CODESPACE_TOL`` in the max norm; state is (d,)."""
        state = np.asarray(state, dtype=complex)
        if state.shape != self.isometry.shape[:1]:
            raise ValueError("state and code dimensions differ")
        return max_abs(self.projector @ state - state) <= CODESPACE_TOL


class SelfComplementaryPair(QuantumCode):
    """One of the 28 candidate codes, with its (i, j) basis indices, 1-based."""

    _fields = QuantumCode._fields + ("index_pair",)

    def __init__(self, n_qubits: int, zero_logical: np.ndarray, one_logical: np.ndarray, *,
                 index_pair: tuple[int, int]):
        super().__init__(n_qubits, zero_logical, one_logical)
        vars(self)["index_pair"] = index_pair

    def as_code(self) -> QuantumCode:
        """The pair itself: a pair is its code."""
        return self


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
    """All 28 pairs (i, j), i < j, of the eight-state basis: a new list of the same shared pairs."""
    return list(_pairs())


@lru_cache(maxsize=None)
def _candidate_states() -> np.ndarray:
    """Read-only (16, 8) matrix of the eight self-complementary states; column i - 1 is state i."""
    states = np.stack([_equal_superposition(bits) for bits in SELF_COMPLEMENTARY_STRINGS], axis=1)
    states.flags.writeable = False
    return states


@lru_cache(maxsize=None)
def _pairs() -> tuple[SelfComplementaryPair, ...]:
    states = _candidate_states().T
    return tuple(SelfComplementaryPair(4, states[i], states[j], index_pair=(i + 1, j + 1))
                 for i, j in combinations(range(len(states)), 2))


@lru_cache(maxsize=None)
def _pair_columns() -> dict:
    """Each shared pair's two ``_candidate_states`` columns, keyed by identity (pairs compare so)."""
    return {pair: np.subtract(pair.index_pair, 1) for pair in _pairs()}


def permutation_equivalent(c1: QuantumCode, c2: QuantumCode) -> Optional[tuple[int, ...]]:
    """Search all qubit permutations mapping the codespace of c1 onto c2's.

    Compares codespace projectors to ``CODESPACE_TOL`` in the max norm rather
    than individual codewords, so a logical relabeling |0_L> <-> |1_L> does
    not break equivalence.  Returns the first matching permutation (0-based
    positions) or None.
    """
    if c1.n_qubits != c2.n_qubits:
        raise ValueError("codes act on different qubit counts")
    n = c1.n_qubits
    # As a (2,)*2n tensor the projector's row and column axes are the qubits;
    # permuting both the same way is M P M^dag for the qubit permutation M.
    tensor = c1.projector.reshape((2,) * (2 * n))
    for perm in permutations(range(n)):
        moved = tensor.transpose(perm + tuple(n + p for p in perm)).reshape(c1.projector.shape)
        if max_abs(moved - c2.projector) <= CODESPACE_TOL:
            return perm
    return None
