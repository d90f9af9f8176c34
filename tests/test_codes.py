import os
import subprocess
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import qecwb as q
from qecwb.linalg import dagger, ket, max_abs, restrict
from test_channels import BAD_QUBIT_COUNTS
from test_kernel_oracle import permute_qubits_matrix


def test_repetition3_projector():
    code = q.repetition3()
    p = code.projector
    assert abs(np.trace(p).real - 2.0) <= 1e-12
    assert abs(p[0, 0] - 1.0) <= 1e-12  # <000|P|000>
    assert abs(p[1, 1]) <= 1e-12  # <001|P|001>
    assert abs(np.vdot(code.zero_logical, code.one_logical)) <= 1e-12


def test_code_refuses_codewords_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="codeword dimension mismatch"):
        q.QuantumCode(2, np.ones(4) / 2, np.ones(8) / np.sqrt(8))


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


def test_complex_code_projector_is_the_hermitian_sum_of_codeword_outers():
    # Every named code is real, so only complex amplitudes show a dropped conjugate.
    rng = np.random.default_rng(7)
    basis, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
    code = q.QuantumCode(3, basis[:, 0], basis[:, 1])
    expected = sum(np.outer(word, word.conj()) for word in code.codewords)
    assert max_abs(code.projector - expected) <= 1e-12
    assert max_abs(code.projector - dagger(code.projector)) <= 1e-12
    assert code.contains((basis[:, 0] + 1j * basis[:, 1]) / np.sqrt(2))


def test_code_constructor_validates():
    with pytest.raises(ValueError):
        q.QuantumCode(2, np.array([1, 0, 0, 0], dtype=complex), np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        q.QuantumCode(2, 2.0 * np.array([1, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex))


CODE_MAKERS = [
    lambda n: q.QuantumCode(n, ket("0"), ket("1")),
    lambda n: q.SelfComplementaryPair(n, ket("0"), ket("1"), index_pair=(1, 2)),
]


@pytest.mark.parametrize("n", BAD_QUBIT_COUNTS + (1.0, 0, -1, np.int64(0)))
@pytest.mark.parametrize("make", CODE_MAKERS, ids=["code", "pair"])
def test_code_constructors_reject_non_positive_integer_qubit_counts(make, n):
    # one-qubit codewords, so True and 1.0 would pass the dimension check
    with pytest.raises(ValueError, match="the number of qubits must be a positive integer"):
        make(n)


@pytest.mark.parametrize("make", CODE_MAKERS, ids=["code", "pair"])
def test_code_constructors_store_numpy_qubit_counts_as_int(make):
    code = make(np.int64(1))
    assert type(code.n_qubits) is int and q.permutation_equivalent(code, code) == (0,)


def test_named_codes_are_built_once_and_read_only():
    for make in (q.repetition3, q.leung4, q.grassl4, q.third4):
        code = make()
        assert make() is code
        for array in (code.zero_logical, code.one_logical, code.projector):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_isometry_is_the_read_only_codeword_columns():
    pairs = q.enumerate_pairs()
    for code in (q.repetition3(), q.leung4(), q.grassl4(), q.third4(), pairs[5].as_code()):
        assert np.array_equal(code.isometry, np.stack(code.codewords, axis=1))
        assert code.isometry.shape == (2 ** code.n_qubits, 2)
        with pytest.raises(ValueError):
            code.isometry[0, 0] = 0.0


def test_code_leaves_caller_arrays_writeable():
    zero, one = ket("000"), ket("111")
    code = q.QuantumCode(3, zero, one)
    zero[0] = 0.5
    assert zero.flags.writeable and code.zero_logical[0] == 1.0
    plus = (ket("0000") + ket("1111")) / np.sqrt(2)
    pair = q.SelfComplementaryPair(4, plus, q.leung4().one_logical, index_pair=(1, 6))
    plus[0] = 0.0
    assert plus.flags.writeable and pair.codewords[0][0] == 1 / np.sqrt(2)


def test_candidate_states_are_the_read_only_columns_of_the_shared_pairs():
    states = q.codes._candidate_states()
    assert states.shape == (16, 8) and not states.flags.writeable
    for i, bits in enumerate(q.codes.SELF_COMPLEMENTARY_STRINGS):
        assert states[:, i].tobytes() == q.codes._equal_superposition(bits).tobytes()
    for pair in q.enumerate_pairs():
        i, j = pair.index_pair
        assert pair.isometry.tobytes() == states[:, [i - 1, j - 1]].tobytes()
    shared = q.codes._pairs()
    columns = np.subtract([pair.index_pair for pair in shared], 1)
    assert columns.tolist() == [list(ij) for ij in combinations(range(8), 2)]
    search = q.conditions._search_columns(*(q.enlarge(q.ad_single(g), 4) for g in (1e-4, 1e-3, 1e-2)))
    assert list(search) == list(shared)  # keyed by the shared pairs themselves
    twin = q.SelfComplementaryPair(4, *shared[0].codewords, index_pair=(1, 2))
    assert twin not in search


def test_candidate_states_are_built_on_first_use_not_at_import():
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import qecwb; print(qecwb.codes._candidate_states.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def test_pairs_and_their_codes_are_built_once_and_read_only():
    pairs = q.enumerate_pairs()
    pairs.pop()
    again = q.enumerate_pairs()
    assert len(pairs) == 27 and len(again) == 28 and again is not q.enumerate_pairs()
    for first, pair in zip(pairs, again):
        assert first is pair and first.as_code() is pair.as_code()
    for pair in again:
        assert isinstance(pair, q.QuantumCode) and pair.as_code() is pair
        for word in pair.codewords:
            with pytest.raises(ValueError):
                word[0] = 0.0


@pytest.mark.parametrize("make", [
    lambda: q.QuantumCode(3, ket("000"), ket("111")),
    lambda: q.SelfComplementaryPair(4, *q.leung4().codewords, index_pair=(1, 6)),
    lambda: q.standard_ad_recovery(0.1),
    # the builders share one channel per rate, so these build a fresh channel each call
    lambda: q.KrausChannel(1, ("0", "1"), q.ad_single(0.1).stack).kraus[0],
    lambda: q.polar_decompose(np.eye(4), np.eye(4)),
    lambda: q.residue(np.eye(4), np.eye(4), 1.0, 1.0),
    lambda: q.kl_gram(q.leung4(), q.weight_le1_ad_errors(0.1)),
    lambda: q.KrausChannel(1, ("0", "1"), q.bitflip_single(0.1).stack),
    lambda: q.entanglement_fidelity(q.repetition3(), q.repetition_recovery(),
                                    q.enlarge(q.bitflip_single(0.1), 3)),
], ids=["code", "pair", "recovery", "kraus-term", "polar", "residue", "kl-gram", "channel", "fidelity"])
def test_array_holders_compare_by_identity(make):
    first, second = make(), make()
    assert first == first and first != second
    assert len({first, second, first}) == 2


NAN_STATE = np.full(8, np.nan, dtype=complex)


@pytest.mark.parametrize("call, message", [
    (lambda: q.QuantumCode(3, NAN_STATE, ket("111")), "codewords must be finite"),
    (lambda: restrict(np.eye(8), [NAN_STATE]), "basis is not orthonormal"),
    (lambda: q.polar_decompose(np.eye(8), np.outer(NAN_STATE, NAN_STATE)),
     "p must be an orthogonal projector"),
], ids=["code", "restrict", "polar"])
def test_nan_fails_deviation_gates(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_codeword_beyond_the_weight_bound_is_named_before_its_norm():
    # ungated, np.linalg.norm of it warns "overflow encountered in dot" before the norm check
    big = ket("000")
    big[0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="codewords must be finite"):
            q.QuantumCode(3, big, ket("111"))


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


# Each gate includes its tolerance; every product behind these deviations is exact,
# so each input sits exactly on the tolerance and twice it fails.
def test_codespace_membership_gate_includes_its_tolerance():
    code = q.repetition3()
    on = ket("000") + q.codes.CODESPACE_TOL * ket("001")
    assert max_abs(code.projector @ on - on) == q.codes.CODESPACE_TOL and code.contains(on)
    assert not code.contains(ket("000") + 2 * q.codes.CODESPACE_TOL * ket("001"))


def test_codeword_orthogonality_gate_includes_its_tolerance():
    tol = q.codes.CODEWORD_TOL
    code = q.QuantumCode(3, ket("000"), ket("111") + tol * ket("000"))
    assert abs(np.vdot(code.zero_logical, code.one_logical)) == tol
    with pytest.raises(ValueError, match="orthogonal"):
        q.QuantumCode(3, ket("000"), ket("111") + 2 * tol * ket("000"))


def test_permutation_equivalence_gate_includes_its_tolerance():
    def tilted(c):  # projector |000><000| + |v><v|, v = |111> + c|110>: off by c from repetition3's
        return q.QuantumCode(3, ket("000"), ket("111") + c * ket("110"))

    tol = q.codes.CODESPACE_TOL
    assert max_abs(tilted(tol).projector - q.repetition3().projector) == tol
    assert q.permutation_equivalent(q.repetition3(), tilted(tol)) == (0, 1, 2)
    assert q.permutation_equivalent(q.repetition3(), tilted(2 * tol)) is None
