"""Single-qubit noise channels and their n-qubit enlarged Kraus sets.

A channel is one read-only (L, d, d) stack of Kraus operators with a tuple
of L labels; the kernels contract the stack directly, and ``kraus`` is a
lazy view of it as labeled terms, kept for readers.  ``enlarge`` gathers
the n-qubit products by flat indices built once per n.  Labels of enlarged
operators are bitstrings of error positions ("0100" = error on qubit 2), with
qubit 1 the leftmost character and the leftmost Kronecker factor, so basis
kets read off directly from labels; the 1s of a label count its error weight.
Memos key their roots on values (a single-qubit channel on its rate) and every
derived memo on the object it derives from, so a rate names its channel once.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from .linalg import PAULI_X, PAULI_Z, _Frozen, bounded, completeness_defect, qubit_count, real_rate

CHANNEL_TOL = 1e-12  # largest completeness defect of a trace-preserving channel (certify, the CLI)


class KrausTerm(_Frozen):
    """One Kraus operator with its label (the bitstring of error positions)."""

    _fields = ("label", "op")


class KrausChannel(_Frozen):
    """Labeled Kraus decomposition of a channel on ``n_qubits`` qubits.

    Construction checks ``n_qubits`` with ``qubit_count`` and copies ``stack``
    into a read-only complex (L, 2**n, 2**n) array, so the caller's array
    stays writeable; row l is the operator labeled ``labels[l]``.  The entry gate
    ``linalg.bounded`` refuses NaN, infinite or overweight stacks, so no kernel
    product overflows.  ``kraus`` pairs labels with views of the rows, and
    ``completeness_defect()`` computes the defect, the first time each is read.
    """

    _fields = ("n_qubits", "labels", "stack")

    def __init__(self, n_qubits: int, labels: tuple[str, ...], stack: np.ndarray):
        n_qubits, labels = qubit_count(n_qubits), tuple(labels)
        dim = 2 ** n_qubits
        try:
            stack = np.array(stack, dtype=complex)
        except ValueError:  # operators of different shapes fail the shape check below
            stack = np.empty(0)
        if stack.shape[1:] != (dim, dim) or not len(stack):
            raise ValueError("a %d-qubit channel needs one or more %d x %d Kraus operators"
                             % (n_qubits, dim, dim))
        if len(labels) != len(stack):
            raise ValueError("a channel needs one label per Kraus operator")
        bounded(stack, "Kraus operators")
        stack.flags.writeable = False
        vars(self).update(n_qubits=n_qubits, labels=labels, stack=stack)

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


class ChannelCertificate(NamedTuple):
    trace_preserving: bool
    unital: bool


# Holds one sweep's channels, single-qubit or enlarged: a table of up to 16 points and the
# analysis pass that revisits them (an LRU cache smaller than the sweep evicts each point
# just before it is read again), plus the three gammas of a pair classification.  A 4-qubit
# entry is 16 operators of 16 x 16 complex entries, 64 KiB, its A_l V in fidelity's cache
# of the same size 8 KiB, and a single-qubit channel under 2 KiB: all stay under 2.4 MiB.
_ENLARGE_CACHE_SIZE = 32


def _single_qubit_channel(rate: float, what: str, flip: Optional[str]) -> KrausChannel:
    """The shared channel at ``rate`` as a Python float; ``ValueError`` unless it lies in [0, 1]."""
    rate = real_rate(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError("%s must lie in [0, 1]" % what)
    return _single_qubit_pair(rate, math.copysign(1.0, rate), flip)


@lru_cache(maxsize=_ENLARGE_CACHE_SIZE)
def _single_qubit_pair(rate: float, sign: float, flip: Optional[str]) -> KrausChannel:
    """Pair diag(sqrt(1-r), sqrt(1-r)), sqrt(r) * Pauli ``flip`` ("X" or "Z"), or for None damping's
    diag(1, sqrt(1-r)), sqrt(r)|0><1|, at r = ``rate``; ``sign`` keys -0.0 apart from 0.0."""
    keep, jump = math.sqrt(1.0 - rate), math.sqrt(rate)
    pair = np.zeros((2, 2, 2), dtype=complex)
    if flip is None:
        pair[0, 0, 0], pair[0, 1, 1], pair[1, 0, 1] = 1.0, keep, jump
    else:
        pair[0, 0, 0] = pair[0, 1, 1] = keep
        pair[1] = jump * (PAULI_X if flip == "X" else PAULI_Z)  # so sqrt(-0.0) reaches the zeros
    return KrausChannel(1, ("0", "1"), pair)


def bitflip_single(p: float) -> KrausChannel:
    """Bit-flip channel: rho -> (1-p) rho + p X rho X, one shared channel per rate."""
    return _single_qubit_channel(p, "error probability", "X")


def phaseflip_single(p: float) -> KrausChannel:
    """Phase-flip (dephasing) channel: rho -> (1-p) rho + p Z rho Z, one shared channel per rate."""
    return _single_qubit_channel(p, "error probability", "Z")


def ad_single(gamma: float) -> KrausChannel:
    """Amplitude damping channel with damping rate ``gamma``.

    Kraus pair diag(1, sqrt(1-gamma)) and sqrt(gamma)|0><1|; the second
    operator is not a Pauli (the channel is nonunital).  One shared channel per rate.
    """
    return _single_qubit_channel(gamma, "damping rate", None)


@lru_cache(maxsize=None)
def _label_order(n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Label of every n-qubit product in output order, and its row in ``np.kron`` order.

    Labels ascend in weight; within a weight the error positions run through
    ``combinations`` in order, which puts "1000" before "0100" and "1100"
    before "1010".  In ``np.kron`` order (the order ``_product_gathers`` forms
    before its last step) the product for label ``b`` is row int(b, 2).
    """
    labels = tuple("".join("1" if i in errors else "0" for i in range(n))
                   for weight in range(n + 1) for errors in combinations(range(n), weight))
    return labels, np.array([int(label, 2) for label in labels])


def enlarge(channel: KrausChannel, n: int) -> KrausChannel:
    """Tensor ``n`` independent uses of a single-qubit channel.

    Produces 2**n labeled product operators grouped by error weight.  Zero
    coefficient operators (p = 0 or gamma = 0) are kept as zero matrices so
    the label set is stable across parameter sweeps.

    All products are built at once as a (2**n, 2**n, 2**n) stack: each step
    gathers the stack so far and the single-qubit pair (A_0, A_1) by index
    arrays built once per n and multiplies them, which forms the products of
    ``np.kron``, leftmost factor first.  The last step's rows are in label
    order: its result is the ``stack``; ``kraus`` views its rows when read.

    For n >= 2 the result is shared and read-only: the last
    ``_ENLARGE_CACHE_SIZE`` (32) enlargements are kept, keyed on ``n`` and the
    single-qubit channel object (never on p or gamma, which do not name the
    channel; two equal channels built apart get two byte-identical enlargements),
    so a sweep that applies one channel to several recoveries, a table whose
    threshold analysis revisits its points, or a search that reuses three damping
    sets over 28 code pairs, builds each set once.  Writing to an operator raises ``ValueError``,
    as does an ``n`` that is not a positive integer (bool or 3.0) or is above 4:
    a product of five entries the entry gate admits (each up to 1e70) can overflow.
    """
    if channel.n_qubits != 1:
        raise ValueError("enlarge expects a single-qubit channel")
    n = qubit_count(n)  # a numpy integer keys the caches as the equal int
    if n > 4:
        raise ValueError("enlarge builds at most 4 qubits")
    if n == 1:
        return channel
    if channel.labels != ("0", "1"):  # the constructor has checked the 2 x 2 shape
        raise ValueError("enlarge expects the single-qubit labels ('0', '1')")
    return _enlarge_pair(n, channel)


@lru_cache(maxsize=None)
def _product_gathers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only flat indices (left, right) of each step ``stack = stack[left] * pair[right]``.

    The step from k operators of dimension k to 2k (k = 2, 4, ...) sets entry (a, r, c)
    to stack[a//2, r//2, c//2] * pair[a%2, r%2, c%2]; the last one takes rows in label order.
    """
    steps = []
    for k in [2 ** m for m in range(1, n)]:
        rows = _label_order(n)[1] if 2 * k == 2 ** n else np.arange(2 * k)
        a, r, c = np.ix_(rows, np.arange(2 * k), np.arange(2 * k))
        left = ((a // 2 * k + r // 2) * k + c // 2).ravel()
        right = ((a % 2 * 2 + r % 2) * 2 + c % 2).ravel()
        left.flags.writeable = right.flags.writeable = False
        steps.append((left, right))
    return tuple(steps)


@lru_cache(maxsize=_ENLARGE_CACHE_SIZE)
def _enlarge_pair(n: int, channel: KrausChannel) -> KrausChannel:
    """The read-only n-qubit products of the channel's (2, 2, 2) operator pair."""
    pair = stack = channel.stack.reshape(-1)
    for left, right in _product_gathers(n):
        stack = stack[left] * pair[right]
    return KrausChannel(n, _label_order(n)[0], stack.reshape(2 ** n, 2 ** n, -1))


def certify(channel: KrausChannel) -> ChannelCertificate:
    """Trace preservation (its cached defect) and unitality (sum A A^dag = I) to ``CHANNEL_TOL``."""
    unital = completeness_defect(channel.stack.conj().transpose(0, 2, 1))
    return ChannelCertificate(channel.completeness_defect() <= CHANNEL_TOL, unital <= CHANNEL_TOL)
