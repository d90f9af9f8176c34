import numpy as np
import pytest

import qecwb as q
from qecwb.linalg import dagger, ket, max_abs
from test_kernel_oracle import permute_qubits_matrix


def test_repetition3_projector():
    code = q.repetition3()
    p = code.projector
    assert abs(np.trace(p).real - 2.0) <= 1e-12
    assert abs(p[0, 0] - 1.0) <= 1e-12  # <000|P|000>
    assert abs(p[1, 1]) <= 1e-12  # <001|P|001>
    assert abs(np.vdot(code.zero_logical, code.one_logical)) <= 1e-12


def test_four_qubit_codes_share_plus_state():
    plus = (ket("0000") + ket("1111")) / np.sqrt(2)
    for code in (q.leung4(), q.grassl4(), q.third4()):
        assert max_abs(code.zero_logical - plus) <= 1e-15
        assert abs(np.vdot(code.zero_logical, code.one_logical)) <= 1e-12


def test_third4_amplitudes():
    one = q.third4().one_logical
    expected = np.zeros(16, dtype=complex)
    expected[0b0101] = 1 / np.sqrt(2)
    expected[0b1010] = 1 / np.sqrt(2)
    assert max_abs(one - expected) <= 1e-15


def test_projectors_idempotent_hermitian():
    for code in (q.repetition3(), q.leung4(), q.grassl4(), q.third4()):
        p = code.projector
        assert max_abs(p @ p - p) <= 1e-12
        assert max_abs(p - dagger(p)) <= 1e-12


def test_code_constructor_validates():
    with pytest.raises(ValueError):
        q.QuantumCode(2, np.array([1, 0, 0, 0], dtype=complex), np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        q.QuantumCode(2, 2.0 * np.array([1, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex))


def test_named_codes_are_built_once_and_read_only():
    for make in (q.repetition3, q.leung4, q.grassl4, q.third4):
        code = make()
        assert make() is code
        for array in (code.zero_logical, code.one_logical, code.projector):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_code_leaves_caller_arrays_writeable():
    zero, one = ket("000"), ket("111")
    code = q.QuantumCode(3, zero, one)
    zero[0] = 0.5
    assert zero.flags.writeable and code.zero_logical[0] == 1.0


def test_self_complementary_basis():
    pairs = q.enumerate_pairs()
    # the first state, then the second state of each pair (1, j)
    basis = [pairs[0].codewords[0]] + [pair.codewords[1] for pair in pairs[:7]]
    assert len(basis) == 8
    assert max_abs(basis[0] - (ket("0000") + ket("1111")) / np.sqrt(2)) <= 1e-15
    for i in range(8):
        for j in range(i + 1, 8):
            assert abs(np.vdot(basis[i], basis[j])) <= 1e-15
        assert abs(np.linalg.norm(basis[i]) - 1.0) <= 1e-12


def test_enumerate_pairs():
    pairs = q.enumerate_pairs()
    assert len(pairs) == 28
    assert [p.index_pair for p in pairs][:7] == [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8)]
    for pair in pairs:
        v0, v1 = pair.codewords
        assert abs(np.vdot(v0, v1)) <= 1e-15

    by_index = {p.index_pair: p for p in pairs}
    leung_like = by_index[(1, 6)].as_code()
    assert max_abs(leung_like.projector - q.leung4().projector) <= 1e-12


def test_permutation_matrix_action():
    # permutation (0,2,1,3) swaps the middle qubits: 0100 -> 0010
    m = permute_qubits_matrix((0, 2, 1, 3), 4)
    assert max_abs(m @ ket("0100") - ket("0010")) == 0.0
    assert max_abs(m @ dagger(m) - np.eye(16)) == 0.0


def test_permutation_equivalences_among_good_codes():
    assert q.permutation_equivalent(q.leung4(), q.leung4()) == (0, 1, 2, 3)
    for first, second in (
        (q.leung4(), q.grassl4()),
        (q.leung4(), q.third4()),
        (q.grassl4(), q.third4()),
    ):
        perm = q.permutation_equivalent(first, second)
        assert perm is not None
        m = permute_qubits_matrix(perm, 4)
        assert max_abs(m @ first.projector @ dagger(m) - second.projector) <= 1e-10
        # symmetric: the reverse search succeeds too
        assert q.permutation_equivalent(second, first) is not None


def test_permutation_equivalence_negative_case():
    # weight profile {1,3} of the second codeword cannot be permuted into {2,2}
    lopsided = q.enumerate_pairs()[0].as_code()  # pair (1, 2)
    assert q.permutation_equivalent(lopsided, q.leung4()) is None


def test_permutation_equivalent_dimension_mismatch():
    with pytest.raises(ValueError):
        q.permutation_equivalent(q.repetition3(), q.leung4())
