from math import comb

import numpy as np
import pytest

import qecwb as q
from qecwb.linalg import PAULI_X, PAULI_Z, dagger, max_abs


def test_bitflip_limits_and_matrix():
    ch = q.bitflip_single(0.0)
    assert max_abs(ch.kraus[0].op - np.eye(2)) == 0.0
    assert max_abs(ch.kraus[1].op) == 0.0

    half = q.bitflip_single(0.5)
    assert abs(max_abs(half.kraus[0].op) - np.sqrt(0.5)) <= 1e-15
    assert abs(max_abs(half.kraus[1].op) - np.sqrt(0.5)) <= 1e-15
    flip = q.bitflip_single(1.0).kraus[1].op
    assert max_abs(flip - PAULI_X) == 0.0


def test_bitflip_rejects_out_of_range():
    with pytest.raises(ValueError):
        q.bitflip_single(-0.1)
    with pytest.raises(ValueError):
        q.bitflip_single(1.1)


def test_phaseflip_matrix_and_identity_limit():
    ch = q.phaseflip_single(0.0)
    assert max_abs(ch.kraus[0].op - np.eye(2)) == 0.0
    assert max_abs(ch.kraus[1].op) == 0.0
    assert max_abs(q.phaseflip_single(1.0).kraus[1].op - PAULI_Z) == 0.0


def test_ad_action_on_basis():
    gamma = 0.37
    a0, a1 = (t.op for t in q.ad_single(gamma).kraus)
    one = np.array([0.0, 1.0], dtype=complex)
    zero = np.array([1.0, 0.0], dtype=complex)
    assert max_abs(a0 @ one - np.sqrt(1 - gamma) * one) <= 1e-15
    assert max_abs(a1 @ one - np.sqrt(gamma) * zero) <= 1e-15
    assert max_abs(dagger(a0) @ a0 + dagger(a1) @ a1 - np.eye(2)) <= 1e-15

    quiet = q.ad_single(0.0)
    assert max_abs(quiet.kraus[0].op - np.eye(2)) == 0.0
    assert max_abs(quiet.kraus[1].op) == 0.0


def test_enlarge_bitflip_three_qubits():
    p = 0.3
    ch = q.enlarge(q.bitflip_single(p), 3)
    assert len(ch.kraus) == 8
    assert ch.labels[0] == "000"
    assert ch.labels[-1] == "111"
    full_flip = {t.label: t.op for t in ch.kraus}["111"]
    expected = np.sqrt(p**3) * np.kron(PAULI_X, np.kron(PAULI_X, PAULI_X))
    assert max_abs(full_flip - expected) <= 1e-15
    # weight-1 ordering follows qubit position: 100, 010, 001
    assert ch.labels[1:4] == ("100", "010", "001")


def test_enlarge_ad_weight_counts():
    ch = q.enlarge(q.ad_single(0.2), 4)
    assert len(ch.kraus) == 16
    counts = {}
    for t in ch.kraus:
        weight = t.label.count("1")
        counts[weight] = counts.get(weight, 0) + 1
    assert counts == {w: comb(4, w) for w in range(5)}


def test_enlarge_keys_on_operators_not_on_the_parameter():
    p = 0.2
    flips = {t.label: t.op for t in q.enlarge(q.bitflip_single(p), 3).kraus}
    phases = {t.label: t.op for t in q.enlarge(q.phaseflip_single(p), 3).kraus}
    for ops, pauli in ((flips, PAULI_X), (phases, PAULI_Z)):
        expected = np.sqrt(p**3) * np.kron(pauli, np.kron(pauli, pauli))
        assert max_abs(ops["111"] - expected) <= 1e-15


def test_enlarged_operators_are_read_only():
    op = q.enlarge(q.ad_single(0.1), 4).kraus[3].op
    with pytest.raises(ValueError):
        op[0, 0] = 1.0


def test_channel_owns_one_read_only_stack():
    ops = np.array([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * PAULI_X], dtype=complex)
    built = ops.copy()
    channel = q.KrausChannel(1, ["0", "1"], ops)
    assert channel.labels == ("0", "1")
    assert channel.stack.shape == (2, 2, 2) and channel.stack.dtype == complex
    # the caller's array stays writeable and no longer reaches the channel
    ops[:] = 0.0
    assert ops.flags.writeable and np.array_equal(channel.stack, built)
    for ch in (channel, q.bitflip_single(0.2), q.ad_single(0.2), q.enlarge(q.ad_single(0.2), 4)):
        assert not ch.stack.flags.writeable
        with pytest.raises(ValueError):
            ch.stack[0, 0, 0] = 1.0
        assert [t.label for t in ch.kraus] == list(ch.labels)
        for i, term in enumerate(ch.kraus):
            assert np.shares_memory(term.op, ch.stack[i]) and np.array_equal(term.op, ch.stack[i])
        assert ch.kraus is ch.kraus


@pytest.mark.parametrize("n_qubits, labels, ops", [
    (1, (), ()),  # no operators
    (1, ("0",), np.ones(2)),  # a vector, not a matrix
    (3, ("0", "1"), [np.eye(2), np.eye(2)]),  # 2 x 2 operators on a "3-qubit" channel
    (1, ("0", "1"), [np.eye(2)]),  # more labels than operators
    (1, ("0",), [np.eye(2), np.eye(2)]),  # fewer labels than operators
    (1, ("0", "1"), [np.eye(2), np.eye(4)]),  # operators of different shapes
], ids=["empty", "vector", "wrong-dimension", "extra-label", "missing-label", "ragged"])
def test_channel_rejects_empty_or_mis_shaped_stack(n_qubits, labels, ops):
    with pytest.raises(ValueError, match="channel needs"):
        q.KrausChannel(n_qubits, labels, ops)


def test_enlarge_validates_input():
    with pytest.raises(ValueError):
        q.enlarge(q.enlarge(q.ad_single(0.1), 2), 2)
    with pytest.raises(ValueError):
        q.enlarge(q.ad_single(0.1), 0)
    # eight entries, as many as a 2 x 2 pair, but not 2 x 2 operators
    with pytest.raises(ValueError, match="2 x 2 Kraus operators"):
        q.enlarge(q.KrausChannel(1, ("0", "1"), [np.ones(4), np.ones(4)]), 2)
    relabeled = q.KrausChannel(1, ("I", "X"), q.bitflip_single(0.1).stack)
    with pytest.raises(ValueError, match="labels"):
        q.enlarge(relabeled, 2)


def test_enlarge_single_qubit_is_identity_operation():
    ch = q.ad_single(0.1)
    assert q.enlarge(ch, 1) is ch


def test_enlarged_label_matches_ket_image():
    # the label's leftmost character damps the leftmost (most significant) qubit
    gamma = 0.1
    ch = q.enlarge(q.ad_single(gamma), 4)
    op = {t.label: t.op for t in ch.kraus}["1000"]
    code = q.leung4()
    image = op @ code.zero_logical
    expected = np.sqrt(gamma / 2) * (1 - gamma) ** 1.5
    target = np.zeros(16, dtype=complex)
    target[int("0111", 2)] = expected
    assert max_abs(image - target) <= 1e-14


def test_certify_verdicts():
    cert = q.certify(q.bitflip_single(0.3))
    assert cert.trace_preserving and cert.unital
    cert = q.certify(q.ad_single(0.3))
    assert cert.trace_preserving and not cert.unital

    enlarged = q.enlarge(q.bitflip_single(0.3), 3)
    clipped = q.KrausChannel(3, enlarged.labels[:4], enlarged.stack[:4])
    assert not q.certify(clipped).trace_preserving


def test_trace_preservation_across_parameters():
    for p in np.linspace(0.0, 1.0, 11):
        assert q.enlarge(q.bitflip_single(p), 3).completeness_defect() <= 1e-12
    for g in np.linspace(0.0, 1.0, 11):
        assert q.enlarge(q.ad_single(g), 4).completeness_defect() <= 1e-12


def test_probability_bookkeeping_on_code_states():
    rng = np.random.default_rng(24)
    code = q.leung4()
    ch = q.enlarge(q.ad_single(0.17), 4)
    for _ in range(100):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        psi = (alpha * code.zero_logical + beta * code.one_logical) / norm
        total = sum(np.vdot(t.op @ psi, t.op @ psi).real for t in ch.kraus)
        assert abs(total - 1.0) <= 1e-12
