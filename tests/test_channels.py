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
    assert ch.labels()[0] == "000"
    assert ch.labels()[-1] == "111"
    full_flip = {t.label: t.op for t in ch.kraus}["111"]
    expected = np.sqrt(p**3) * np.kron(PAULI_X, np.kron(PAULI_X, PAULI_X))
    assert max_abs(full_flip - expected) <= 1e-15
    # weight-1 ordering follows qubit position: 100, 010, 001
    assert ch.labels()[1:4] == ["100", "010", "001"]


def test_enlarge_ad_weight_counts():
    ch = q.enlarge(q.ad_single(0.2), 4)
    assert len(ch.kraus) == 16
    counts = {}
    for t in ch.kraus:
        weight = t.label.count("1")
        counts[weight] = counts.get(weight, 0) + 1
    assert counts == {w: comb(4, w) for w in range(5)}


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
    clipped = q.KrausChannel(3, enlarged.kraus[:4])
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
