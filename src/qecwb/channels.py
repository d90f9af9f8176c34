"""Single-qubit noise channels and their n-qubit enlarged Kraus sets.

A channel is a labeled list of Kraus operators together with the noise
parameter that generated them.  Labels of enlarged operators are bitstrings
of error positions ("0100" = error on qubit 2), with qubit 1 the leftmost
character and the leftmost character the leftmost Kronecker factor, so that
basis kets read off directly from labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    dagger,
    max_abs,
)

CERT_TOL = 1e-10


@dataclass(frozen=True)
class KrausTerm:
    """One Kraus operator with its label and error weight."""

    label: str
    weight: int
    op: np.ndarray


@dataclass(frozen=True)
class KrausChannel:
    """Labeled Kraus decomposition of a channel on ``n_qubits`` qubits."""

    n_qubits: int
    param: float
    kraus: tuple[KrausTerm, ...]

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def operators(self) -> list[np.ndarray]:
        return [t.op for t in self.kraus]

    def labels(self) -> list[str]:
        return [t.label for t in self.kraus]

    def completeness_defect(self) -> float:
        """Max-norm deviation of sum(A^dag A) from the identity."""
        acc = sum(dagger(t.op) @ t.op for t in self.kraus)
        return max_abs(acc - np.eye(self.dim))

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "param": self.param,
            "kraus": [
                {
                    "label": t.label,
                    "entries": [[float(z.real), float(z.imag)] for z in t.op.ravel()],
                }
                for t in self.kraus
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "KrausChannel":
        n = int(data["n_qubits"])
        dim = 2 ** n
        terms = []
        for item in data["kraus"]:
            flat = np.array([complex(re, im) for re, im in item["entries"]])
            label = str(item["label"])
            weight = label.count("1") if set(label) <= {"0", "1"} else 0
            terms.append(KrausTerm(label, weight, flat.reshape(dim, dim)))
        return cls(n, float(data["param"]), tuple(terms))


@dataclass(frozen=True)
class ChannelCertificate:
    trace_preserving: bool
    unital: bool
    tp_deviation: float
    unital_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.tp_deviation, self.unital_deviation)


def _two_outcome_channel(p: float, flip_op: np.ndarray) -> KrausChannel:
    if not 0.0 <= p <= 1.0:
        raise ValueError("error probability must lie in [0, 1]")
    terms = (
        KrausTerm("0", 0, np.sqrt(1.0 - p) * PAULI_I),
        KrausTerm("1", 1, np.sqrt(p) * flip_op.astype(complex)),
    )
    return KrausChannel(1, p, terms)


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
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(1, gamma, (KrausTerm("0", 0, a0), KrausTerm("1", 1, a1)))


def _label_order_key(label: str) -> tuple:
    # ascending weight; within a weight, higher-index bitstrings first, which
    # puts "1000" before "0100" and "1100" before "1010" etc.
    return (label.count("1"), tuple(-int(c) for c in label))


@lru_cache(maxsize=None)
def _label_order(n: int) -> tuple[tuple[tuple[str, int], ...], np.ndarray]:
    """(label, weight) of every n-qubit product in output order, and its stack row.

    The stack built by ``enlarge`` holds the product for label ``b`` at row
    int(b, 2).
    """
    labels = sorted((format(i, "0%db" % n) for i in range(2 ** n)), key=_label_order_key)
    order = np.array([int(label, 2) for label in labels])
    return tuple((label, label.count("1")) for label in labels), order


def enlarge(channel: KrausChannel, n: int) -> KrausChannel:
    """Tensor ``n`` independent uses of a single-qubit channel.

    Produces 2**n labeled product operators grouped by error weight.  Zero
    coefficient operators (p = 0 or gamma = 0) are kept as zero matrices so
    the label set is stable across parameter sweeps.

    All products are built at once as a (2**n, 2**n, 2**n) stack: each step
    multiplies the stack so far by the single-qubit pair (A_0, A_1) with
    broadcasting, which forms the same entrywise products, leftmost factor
    first, as ``np.kron``.  The stack is then put in label order once, and
    every ``KrausTerm.op`` is a view into it.
    """
    if channel.n_qubits != 1:
        raise ValueError("enlarge expects a single-qubit channel")
    if n < 1:
        raise ValueError("need at least one qubit")
    if n == 1:
        return channel
    single = {t.label: t.op for t in channel.kraus}
    pair = np.array([single["0"], single["1"]], dtype=complex)
    stack = pair
    for _ in range(n - 1):
        k, d = stack.shape[:2]
        stack = (stack[:, None, :, None, :, None] * pair[None, :, None, :, None, :]).reshape(
            2 * k, 2 * d, 2 * d
        )
    labels, order = _label_order(n)
    stack = stack[order]
    terms = tuple(KrausTerm(label, weight, op) for (label, weight), op in zip(labels, stack))
    return KrausChannel(n, channel.param, terms)


def apply_channel(channel: KrausChannel, rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Apply the channel to a density matrix: sum_k A_k rho A_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError("density matrix dimension mismatch")
    if max_abs(rho - dagger(rho)) > tol or abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("input is not a density matrix")
    if np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min() < -tol:
        raise ValueError("input is not positive semidefinite")
    out = np.zeros_like(rho)
    for t in channel.kraus:
        out += t.op @ rho @ dagger(t.op)
    return out


def certify(channel: KrausChannel, tol: float = CERT_TOL) -> ChannelCertificate:
    """Check trace preservation (sum A^dag A = I) and unitality (sum A A^dag = I)."""
    eye = np.eye(channel.dim)
    tp_dev = max_abs(sum(dagger(t.op) @ t.op for t in channel.kraus) - eye)
    un_dev = max_abs(sum(t.op @ dagger(t.op) for t in channel.kraus) - eye)
    return ChannelCertificate(tp_dev <= tol, un_dev <= tol, float(tp_dev), float(un_dev))


def truncate(channel: KrausChannel, labels: list[str]) -> KrausChannel:
    """Keep only the Kraus terms with the given labels (a CP, generally non-TP map)."""
    keep = [t for t in channel.kraus if t.label in set(labels)]
    if len(keep) != len(labels):
        raise ValueError("unknown label in truncation set")
    return KrausChannel(channel.n_qubits, channel.param, tuple(keep))


def hadamard_conjugate(channel: KrausChannel) -> KrausChannel:
    """Conjugate every Kraus operator by the Hadamard gate (single qubit)."""
    if channel.n_qubits != 1:
        raise ValueError("expected a single-qubit channel")
    terms = tuple(
        KrausTerm(t.label, t.weight, HADAMARD @ t.op @ dagger(HADAMARD))
        for t in channel.kraus
    )
    return KrausChannel(1, channel.param, terms)
