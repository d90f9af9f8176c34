"""Single-qubit noise channels and their n-qubit enlarged Kraus sets.

A channel is one read-only (L, d, d) stack of Kraus operators with a tuple
of L labels; the kernels contract the stack directly, and ``kraus`` is a
lazy view of it as labeled terms, kept for readers.  Labels of enlarged
operators are bitstrings of error positions ("0100" = error on qubit 2),
with qubit 1 the leftmost character and the leftmost character the leftmost
Kronecker factor, so that basis kets read off directly from labels; the
error weight of an operator is the number of 1s in its label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import PAULI_I, PAULI_X, PAULI_Z, completeness_defect

CERT_TOL = 1e-10  # max-norm completeness deviation that certify accepts


@dataclass(frozen=True, eq=False)  # eq=False: the operator is an array
class KrausTerm:
    """One Kraus operator with its label (the bitstring of error positions)."""

    label: str
    op: np.ndarray


@dataclass(frozen=True, eq=False)  # eq=False: the stack is an array
class KrausChannel:
    """Labeled Kraus decomposition of a channel on ``n_qubits`` qubits.

    Construction copies ``stack`` into a read-only complex (L, 2**n, 2**n)
    array, so the caller's array stays writeable; row l is the operator
    labeled ``labels[l]``.  ``kraus`` pairs labels with views of the rows,
    and ``completeness_defect()`` computes the defect, the first time each
    is read.
    """

    n_qubits: int
    labels: tuple[str, ...]
    stack: np.ndarray

    def __post_init__(self):
        try:
            stack = np.array(self.stack, dtype=complex)
        except ValueError:  # operators of different shapes fail the shape check below
            stack = np.empty(0)
        if stack.shape[1:] != (self.dim, self.dim) or not len(stack):
            raise ValueError("a %d-qubit channel needs one or more %d x %d Kraus operators"
                             % (self.n_qubits, self.dim, self.dim))
        if len(self.labels) != len(stack):
            raise ValueError("a channel needs one label per Kraus operator")
        stack.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "stack", stack)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @cached_property
    def kraus(self) -> tuple[KrausTerm, ...]:
        return tuple(KrausTerm(label, op) for label, op in zip(self.labels, self.stack))

    @cached_property
    def _defect(self) -> float:
        return completeness_defect(self.stack)

    def completeness_defect(self) -> float:
        """Max-norm deviation of sum(A^dag A) from the identity, computed on first read."""
        return self._defect


@dataclass(frozen=True)
class ChannelCertificate:
    trace_preserving: bool
    unital: bool


def _two_outcome_channel(p: float, flip_op: np.ndarray) -> KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise ValueError("error probability must lie in [0, 1]")
    return KrausChannel(1, ("0", "1"), [np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * flip_op])


def bitflip_single(p: float) -> KrausChannel:
    """Bit-flip channel: rho -> (1-p) rho + p X rho X."""
    return _two_outcome_channel(p, PAULI_X)


def phaseflip_single(p: float) -> KrausChannel:
    """Phase-flip (dephasing) channel: rho -> (1-p) rho + p Z rho Z."""
    return _two_outcome_channel(p, PAULI_Z)


def ad_single(gamma: float) -> KrausChannel:
    """Amplitude damping channel with damping rate ``gamma``.

    Kraus pair diag(1, sqrt(1-gamma)) and sqrt(gamma)|0><1|; the second
    operator is not a Pauli (the channel is nonunital).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("damping rate must lie in [0, 1]")
    stack = [[[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], [[0.0, np.sqrt(gamma)], [0.0, 0.0]]]
    return KrausChannel(1, ("0", "1"), stack)


def _label_order_key(label: str) -> tuple:
    # ascending weight; within a weight, higher-index bitstrings first, which
    # puts "1000" before "0100" and "1100" before "1010" etc.
    return (label.count("1"), tuple(-int(c) for c in label))


@lru_cache(maxsize=None)
def _label_order(n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Label of every n-qubit product in output order, and its stack row.

    The stack built by ``enlarge`` holds the product for label ``b`` at row
    int(b, 2).
    """
    labels = sorted((format(i, "0%db" % n) for i in range(2 ** n)), key=_label_order_key)
    order = np.array([int(label, 2) for label in labels])
    return tuple(labels), order


# Holds one sweep point's channel plus the three gammas of a pair
# classification with room to spare; a 4-qubit entry is 16 operators of
# 16 x 16 complex entries, 64 KiB, so the cache stays at or below 512 KiB.
_ENLARGE_CACHE_SIZE = 8


def enlarge(channel: KrausChannel, n: int) -> KrausChannel:
    """Tensor ``n`` independent uses of a single-qubit channel.

    Produces 2**n labeled product operators grouped by error weight.  Zero
    coefficient operators (p = 0 or gamma = 0) are kept as zero matrices so
    the label set is stable across parameter sweeps.

    All products are built at once as a (2**n, 2**n, 2**n) stack: each step
    multiplies the stack so far by the single-qubit pair (A_0, A_1) with
    broadcasting, which forms the same entrywise products, leftmost factor
    first, as ``np.kron``.  Put in label order once, it is the result's
    ``stack``; ``kraus`` views its rows only when read.

    For n >= 2 the result is shared and read-only: the last
    ``_ENLARGE_CACHE_SIZE`` (8) enlargements are kept, keyed on ``n`` and the
    bytes of the single-qubit operators (never on p or gamma, which do not
    name the channel), so a sweep that applies one channel to several
    recoveries, or a search that reuses three damping sets over 28 code
    pairs, builds each set once.  Writing to an operator raises
    ``ValueError``.
    """
    if channel.n_qubits != 1:
        raise ValueError("enlarge expects a single-qubit channel")
    if n < 1:
        raise ValueError("need at least one qubit")
    if n == 1:
        return channel
    if channel.labels != ("0", "1"):  # the constructor has checked the 2 x 2 shape
        raise ValueError("enlarge expects the single-qubit labels ('0', '1')")
    return _enlarge_pair(n, channel.stack.tobytes())


@lru_cache(maxsize=_ENLARGE_CACHE_SIZE)
def _enlarge_pair(n: int, pair_bytes: bytes) -> KrausChannel:
    """The read-only n-qubit products of the (2, 2, 2) operator pair in ``pair_bytes``."""
    pair = np.frombuffer(pair_bytes, dtype=complex).reshape(2, 2, 2)
    stack = pair
    for _ in range(n - 1):
        k, d = stack.shape[:2]
        stack = (stack[:, None, :, None, :, None] * pair[None, :, None, :, None, :]).reshape(
            2 * k, 2 * d, 2 * d
        )
    labels, order = _label_order(n)
    return KrausChannel(n, labels, stack[order])


def certify(channel: KrausChannel) -> ChannelCertificate:
    """Trace preservation (sum A^dag A = I) and unitality (sum A A^dag = I) to ``CERT_TOL``."""
    tp_dev = completeness_defect(channel.stack)
    un_dev = completeness_defect(channel.stack.conj().transpose(0, 2, 1))
    return ChannelCertificate(tp_dev <= CERT_TOL, un_dev <= CERT_TOL)
