import numpy as np
import pytest

import qecwb as q
from qecwb.linalg import (
    dagger,
    gram_schmidt,
    hermitian_eig,
    ket,
    max_abs,
    psd_sqrt,
    restrict,
)


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_hermitian_eig_diagonal():
    values, vectors = hermitian_eig(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(values, [1.0, 2.0])
    assert max_abs(vectors - np.eye(2)) <= 1e-12


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(13)
    a = random_complex(rng, 4, 4)
    m = a + dagger(a)
    values, vectors = hermitian_eig(m)
    rebuilt = (vectors * values) @ dagger(vectors)
    assert max_abs(m - rebuilt) <= 1e-10
    assert max_abs(dagger(vectors) @ vectors - np.eye(4)) <= 1e-10


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def nan_diagonal_eye():
    m = np.eye(4, dtype=complex)
    m[2, 2] = np.nan
    return m


def test_nan_entry_fails_the_hermiticity_gate():
    # NaN fails every comparison, so only the `not dev <= TOL` form of the gate rejects it
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(nan_diagonal_eye())
    # polar_decompose and residue refuse the same operator at their entry gate, before any product
    with pytest.raises(ValueError, match="error operator must be finite"):
        q.polar_decompose(nan_diagonal_eye(), np.eye(4))
    with pytest.raises(ValueError, match="error operator must be finite"):
        q.residue(nan_diagonal_eye(), np.eye(4), 1.0, 1.0)


def test_hermitian_eig_rejects_overflowing_eigenvalues():
    m = np.full((2, 2), 1e308, dtype=complex)  # Hermitian and finite; eigenvalue 2e308 is inf
    with pytest.raises(ValueError, match="non-finite entries"):
        hermitian_eig(m)


def test_projector_spectrum_is_zero_one():
    values, _ = hermitian_eig(q.leung4().projector)
    distance = np.minimum(np.abs(values), np.abs(values - 1.0))
    assert distance.max() <= 1e-10


def test_damped_product_restricted_eigenvalues():
    # nonzero spectrum of the codespace-restricted no-damp product at gamma=0.1
    gamma = 0.1
    code = q.leung4()
    a = {t.label: t.op for t in q.enlarge(q.ad_single(gamma), 4).kraus}["0000"]
    sub = [ket("0000"), ket("0011"), ket("1100"), ket("1111")]
    values, _ = hermitian_eig(restrict(code.projector @ dagger(a) @ a @ code.projector, sub))
    nonzero = sorted(v for v in values if v > 1e-12)
    assert abs(nonzero[0] - (1 - gamma) ** 2) <= 1e-12
    assert abs(nonzero[1] - (1 + (1 - gamma) ** 4) / 2) <= 1e-12


def test_psd_sqrt_identity_and_scalars():
    assert max_abs(psd_sqrt(np.eye(3, dtype=complex)) - np.eye(3)) <= 1e-14
    for c in (0.0, 1.0, 4.0):
        root = psd_sqrt(c * np.eye(2, dtype=complex))
        assert max_abs(root - np.sqrt(c) * np.eye(2)) == 0.0


def test_psd_sqrt_multiply_back():
    rng = np.random.default_rng(14)
    a = random_complex(rng, 4, 4)
    m = a @ dagger(a)
    root = psd_sqrt(m)
    assert max_abs(root @ root - m) <= 1e-9
    assert max_abs(root - dagger(root)) <= 1e-12


def test_psd_sqrt_spectrum_of_damped_product():
    gamma = 0.1
    code = q.leung4()
    a = {t.label: t.op for t in q.enlarge(q.ad_single(gamma), 4).kraus}["0000"]
    root = psd_sqrt(code.projector @ dagger(a) @ a @ code.projector)
    sub = [ket("0000"), ket("0011"), ket("1100"), ket("1111")]
    values, _ = hermitian_eig(restrict(root, sub))
    expected = [0.0, 0.0, 1 - gamma, np.sqrt((1 + (1 - gamma) ** 4) / 2)]
    assert np.max(np.abs(np.sort(values) - expected)) <= 1e-12


def test_psd_sqrt_matches_scipy_sqrtm():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = int(rng.choice((2, 4, 8, 16)))
        b = random_complex(rng, d, d)
        m = b @ dagger(b)
        expected = scipy_linalg.sqrtm(m)
        assert max_abs(psd_sqrt(m) - expected) <= 1e-12 * max_abs(expected), seed


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_gram_schmidt_keeps_orthonormal_input():
    vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    out = gram_schmidt(vecs, 1e-12)
    assert max_abs(np.column_stack(out) - np.eye(2)) <= 1e-12


def test_gram_schmidt_hand_projection():
    vecs = [np.array([1.0, 0.0], dtype=complex), np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)]
    out = gram_schmidt(vecs, 1e-12)
    assert len(out) == 2
    assert max_abs(out[0] - [1.0, 0.0]) <= 1e-12
    assert max_abs(out[1] - [0.0, 1.0]) <= 1e-12


def test_gram_schmidt_damped_image_set():
    # orthonormalizing the damped images (nonzero-eigenvalue images first)
    # leaves the kernel-side vector proportional to (-(1-g)^2, 0, 0, 1)
    gamma = 0.1
    c2 = (1 - gamma) ** 2
    scale = np.sqrt(1 + c2 * c2)
    e1 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    e2 = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2)
    e4 = np.array([1, 0, 0, c2], dtype=complex) / scale
    e3 = np.array([-1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    out = gram_schmidt([e1, e2, e4, e3], 1e-12)
    assert len(out) == 4
    expected = np.array([-c2, 0, 0, 1], dtype=complex) / scale
    phase = np.vdot(expected, out[3])
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert max_abs(out[3] - phase * expected) <= 1e-12
    gram = dagger(np.column_stack(out)) @ np.column_stack(out)
    assert max_abs(gram - np.eye(4)) <= 1e-12


def test_gram_schmidt_drops_dependent_vectors():
    vecs = [np.array([1.0, 0.0], dtype=complex), np.array([2.0, 0.0], dtype=complex)]
    assert len(gram_schmidt(vecs, 1e-10)) == 1
    assert gram_schmidt([], 1e-10) == []


def test_dagger_involution_and_product_rule():
    rng = np.random.default_rng(15)
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    assert max_abs(dagger(dagger(a)) - a) == 0.0
    assert max_abs(dagger(a @ b) - dagger(b) @ dagger(a)) <= 1e-12


def test_trace_and_restrict():
    assert np.trace(np.eye(4)) == 4.0
    code = q.leung4()
    block = restrict(code.projector, list(code.codewords))
    assert max_abs(block - np.eye(2)) <= 1e-12
    with pytest.raises(ValueError):
        restrict(np.eye(4), [np.ones(3)])


def test_hermitian_eig_makes_each_complex_pivot_real_positive():
    rng = np.random.default_rng(17)
    a = random_complex(rng, 4, 4)
    _, vectors = hermitian_eig(a + dagger(a))
    for col in vectors.T:
        pivot = col[np.flatnonzero(np.abs(col) > q.linalg.PHASE_PIVOT_TOL)[0]]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-15


def test_phase_pivot_is_the_first_entry_above_the_tolerance():
    # an entry of exactly PHASE_PIVOT_TOL is not a pivot, so the next one is rotated to 1
    fixed = q.linalg._fix_phases(np.array([[q.linalg.PHASE_PIVOT_TOL], [1j]]))
    assert fixed[1, 0] == 1.0


def test_linalg_gates_include_their_tolerances():
    # each input sits exactly at its gate, which accepts it
    values, _ = hermitian_eig(np.array([[0.0, q.linalg.HERMITICITY_TOL], [0.0, 0.0]]))
    assert values.size == 2
    root = psd_sqrt(np.diag([-q.linalg.NEGATIVE_EIGENVALUE_TOL, 1.0]))  # clamped to zero
    assert max_abs(root - np.diag([0.0, 1.0])) == 0.0
    clamp = q.linalg.EIGENVALUE_CLAMP_TOL  # kept, not set to zero
    assert abs(psd_sqrt(np.diag([clamp, 1.0]))[0, 0] - np.sqrt(clamp)) <= 1e-20
    basis = [np.array([1.0, 0.0]), np.array([q.linalg.ORTHONORMAL_TOL, 1.0])]
    assert restrict(np.eye(2), basis).shape == (2, 2)


def test_gram_schmidt_drops_a_residual_of_exactly_tol():
    assert gram_schmidt([np.array([0.5, 0.0])], tol=0.5) == []
    assert len(gram_schmidt([np.array([0.5, 0.0])], tol=0.25)) == 1
