import numpy as np
import pytest

import qecwb as q
from qecwb.linalg import completeness_defect, dagger, ket, max_abs, restrict
from qecwb.recovery import RecoveryOperation, _damping_fixed


def ad_op(gamma, label):
    return {t.label: t.op for t in q.enlarge(q.ad_single(gamma), 4).kraus}[label]


def bitflip_ops(p):
    return [(t.label, t.op) for t in q.enlarge(q.bitflip_single(p), 3).kraus]


def explicit_recovery_unitary(gamma):
    """The 4x4 block of the no-damp recovery unitary on (0000, 0011, 1100, 1111)."""
    c2 = (1 - gamma) ** 2
    scale = np.sqrt(2) * np.sqrt(1 + c2 * c2)
    m = np.eye(4, dtype=complex)
    m[0, 0] = m[3, 3] = (1 + c2) / scale
    m[0, 3] = (1 - c2) / scale
    m[3, 0] = -(1 - c2) / scale
    return m


def test_polar_matches_explicit_form():
    gamma = 0.1
    code = q.leung4()
    pol = q.polar_decompose(ad_op(gamma, "0000"), code.projector)
    sub = [ket("0000"), ket("0011"), ket("1100"), ket("1111")]
    assert max_abs(restrict(pol.u, sub) - explicit_recovery_unitary(gamma)) <= 1e-9
    # identity away from the touched block
    mask = np.ones(16, dtype=bool)
    mask[[0, 3, 12, 15]] = False
    assert max_abs(pol.u[np.ix_(mask, mask)] - np.eye(12)) <= 1e-12


def test_polar_no_damping_limit():
    code = q.leung4()
    pol = q.polar_decompose(ad_op(0.0, "0000"), code.projector)
    assert max_abs(pol.u - np.eye(16)) <= 1e-12
    assert max_abs(restrict(pol.u, [ket("0000"), ket("0011"), ket("1100"), ket("1111")])
                   - explicit_recovery_unitary(0.0)) <= 1e-12


def test_polar_full_projector_reduces_to_textbook_form():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    pol = q.polar_decompose(a, np.eye(4, dtype=complex))
    values, vectors = np.linalg.eigh(dagger(a) @ a)
    inv_root = (vectors / np.sqrt(values)) @ dagger(vectors)
    assert max_abs(pol.u @ dagger(pol.u) - np.eye(4)) <= 1e-10
    assert max_abs(pol.u - a @ inv_root) <= 1e-9
    assert max_abs(pol.u @ pol.j - a) <= 1e-9


def test_polar_consistency_for_correctable_errors():
    gamma = 0.1
    code = q.leung4()
    for label in ("0000", "1000", "0100", "0010", "0001"):
        a = ad_op(gamma, label)
        pol = q.polar_decompose(a, code.projector)
        assert max_abs(a @ code.projector - pol.u @ pol.j) <= 1e-9
        assert max_abs(pol.u @ dagger(pol.u) - np.eye(16)) <= 1e-9


def test_polar_is_deterministic():
    code = q.leung4()
    a = ad_op(0.1, "1000")
    first = q.polar_decompose(a, code.projector)
    second = q.polar_decompose(a, code.projector)
    assert max_abs(first.u - second.u) == 0.0
    assert max_abs(first.j - second.j) == 0.0


def test_polar_rejects_non_projector():
    with pytest.raises(ValueError):
        q.polar_decompose(np.eye(4, dtype=complex), 2.0 * np.eye(4, dtype=complex))


def test_polar_exact_case_collapses_to_projective_recovery():
    # for the repetition code the polar route reproduces the projective
    # recovery operators up to a global phase
    p = 0.3
    code = q.repetition3()
    rec = q.repetition_recovery()
    explicit = dict(zip(rec.labels, rec.stack))
    names = {"000": "no-flip", "100": "flip-1", "010": "flip-2", "001": "flip-3"}
    for label, a in bitflip_ops(p)[:4]:
        pol = q.polar_decompose(a, code.projector)
        derived = code.projector @ dagger(pol.u)
        reference = explicit[names[label]]
        # compare R^dag R and the action on the corrupted codewords
        assert max_abs(dagger(derived) @ derived - dagger(reference) @ reference) <= 1e-9
        for word in code.codewords:
            image = a @ word
            norm = np.linalg.norm(image)
            got = derived @ image / norm
            want = reference @ image / norm
            overlap = np.vdot(want, got)
            assert abs(abs(overlap) - 1.0) <= 1e-9


def test_unambiguous_syndromes_for_exact_case():
    p = 0.3
    code = q.repetition3()
    unitaries = [q.polar_decompose(a, code.projector).u for _, a in bitflip_ops(p)[:4]]
    for i, u in enumerate(unitaries):
        for j, w in enumerate(unitaries):
            block = code.projector @ dagger(u) @ w @ code.projector
            expected = code.projector if i == j else np.zeros((8, 8))
            assert max_abs(block - expected) <= 1e-10


def test_residue_explicit_corner_form():
    gamma = 0.1
    code = q.leung4()
    a = ad_op(gamma, "0000")
    c2 = (1 - gamma) ** 2
    p_l = (1 + c2 * c2) / 2
    res = q.residue(a, code.projector, p_l=p_l, lambda_l=c2 / p_l)
    sub = [ket("0000"), ket("0011"), ket("1100"), ket("1111")]
    corner = gamma / 2 + 0.5 * np.sqrt(0.5 * (gamma - 1) ** 4 + 0.5) - 0.5
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([0, 3], [0, 3])] = corner
    assert max_abs(restrict(res.pi, sub) - expected) <= 1e-12
    assert res.bound_ok


def test_residue_small_damping_corner_value():
    gamma = 1e-3
    code = q.leung4()
    c2 = (1 - gamma) ** 2
    p_l = (1 + c2 * c2) / 2
    res = q.residue(ad_op(gamma, "0000"), code.projector, p_l=p_l, lambda_l=c2 / p_l)
    sub = [ket("0000"), ket("0011"), ket("1100"), ket("1111")]
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([0, 3], [0, 3])] = gamma**2 / 2
    assert max_abs(restrict(res.pi, sub) - expected) <= 1e-6


def test_residue_vanishes_in_exact_case():
    p = 0.3
    code = q.repetition3()
    label, a = bitflip_ops(p)[0]
    res = q.residue(a, code.projector, p_l=(1 - p) ** 3, lambda_l=1.0)
    assert max_abs(res.pi) <= 1e-12
    assert res.bound_ok


def test_residue_bound_over_damping_range():
    code = q.leung4()
    for gamma in (0.05, 0.1, 0.2):
        for label in ("0000", "1000", "0100", "0010", "0001"):
            a = ad_op(gamma, label)
            restricted = code.projector @ dagger(a) @ a @ code.projector
            eigs = np.linalg.eigvalsh(restricted)
            nonzero = sorted(x for x in eigs if x > 1e-12)
            p_l = nonzero[-1]
            res = q.residue(a, code.projector, p_l=p_l, lambda_l=nonzero[0] / p_l)
            assert res.bound_ok


def test_residue_validates_eigenvalue():
    code = q.leung4()
    with pytest.raises(ValueError):
        q.residue(ad_op(0.1, "0000"), code.projector, p_l=0.9, lambda_l=0.5)


def test_repetition_recovery_structure():
    rec = q.repetition_recovery()
    ops = dict(zip(rec.labels, rec.stack))
    expected_r1 = np.outer(ket("000"), ket("100").conj()) + np.outer(ket("111"), ket("011").conj())
    assert max_abs(ops["flip-1"] - expected_r1) == 0.0
    assert rec.completeness_defect() <= 1e-12
    assert rec.leftover is None
    # operators are built without reference to any error probability
    assert all(op.dtype == complex for op in rec.operators())


def test_standard_ad_recovery_structure():
    gamma = 0.1
    rec = q.standard_ad_recovery(gamma)
    assert rec.completeness_defect() <= 1e-10
    assert rec.labels == ("adapted-1", "damp-1", "damp-2", "damp-3", "damp-4", "O")
    first = rec.stack[0]
    # the adapted-1 operator reads out |0000> + (1-g)^2 |1111> (normalized)
    source = ket("0000") + (1 - gamma) ** 2 * ket("1111")
    source /= np.linalg.norm(source)
    code = q.leung4()
    assert max_abs(first @ source - code.zero_logical) <= 1e-12
    assert abs((1 - gamma) ** 2 - 0.81) <= 1e-15
    # the codespace projector is not among the operators
    for op in rec.operators():
        assert max_abs(op - code.projector) > 1e-6
    assert max_abs(rec.leftover - code.projector) > 1e-6
    assert abs(np.trace(rec.leftover).real - 6.0) <= 1e-12


def test_cp_recovery_structure():
    rec = q.cp_recovery()
    code = q.leung4()
    assert rec.labels == (
        "adapted-1", "adapted-2", "damp-1", "damp-2", "damp-3", "damp-4",
        "damp-23", "damp-24", "damp-13", "damp-14",
    )
    assert max_abs(rec.stack[0] - code.projector) <= 1e-15
    damp23 = dict(zip(rec.labels, rec.stack))["damp-23"]
    assert max_abs(damp23 - np.outer(code.zero_logical, ket("1001").conj())) <= 1e-15
    assert rec.completeness_defect() <= 1e-12


def test_parameter_free_recoveries_are_built_once_and_read_only():
    for make in (q.repetition_recovery, q.cp_recovery):
        assert make() is make()
    rng = np.random.default_rng(43)
    ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
    leftover = rng.normal(size=(4, 4)).astype(complex)
    hand_made = RecoveryOperation(2, ("x", "y", "O"), [ops[0], ops[1], leftover])
    recoveries = [q.repetition_recovery(), q.cp_recovery(), q.standard_ad_recovery(0.1),
                  q.fletcher_recovery(0.6, 0.8j), hand_made]
    for recovery in recoveries:
        rows = recovery.operators() + ([] if recovery.leftover is None else [recovery.leftover])
        assert recovery.stack.shape == (len(rows), recovery.dim, recovery.dim)
        for row, op in zip(recovery.stack, rows):
            assert op.base is recovery.stack and np.array_equal(op, row)
        for array in (recovery.stack, *rows):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
    # the caller's arrays stay writeable and no longer reach the recovery
    built = [op.copy() for op in ops] + [leftover.copy()]
    ops[0][:] = 0.0
    leftover[:] = 0.0
    assert all(np.array_equal(op, was) for op, was in zip(hand_made.operators(), built))
    assert np.array_equal(hand_made.leftover, built[-1])
    assert hand_made.completeness_defect() == completeness_defect(built)
    # the damping family's cached fixed parts are shared, so they are read-only too
    syndromes, tail, *rest = _damping_fixed()
    assert all(not part.flags.writeable for part in (*syndromes, *tail, *rest))


def test_recovery_needs_an_operator_or_a_leftover():
    with pytest.raises(ValueError, match="needs one or more 2 x 2 Kraus operators"):
        RecoveryOperation(1, (), [])
    assert RecoveryOperation(1, ("O",), [np.eye(2)]).completeness_defect() == 0.0


@pytest.mark.parametrize("labels, stack", [
    (("a",), [np.ones((2, 3))]),  # not square
    (("a",), [np.eye(3)]),  # 3 x 3 fits no qubit count
    (("a", "O"), [np.eye(2), np.eye(4)]),  # leftover of another shape
], ids=["non-square", "three-by-three", "leftover-shape"])
def test_recovery_names_a_misshaped_operator(labels, stack):
    with pytest.raises(ValueError, match="1-qubit channel needs one or more 2 x 2 Kraus operators"):
        RecoveryOperation(1, labels, stack)


def test_only_the_last_row_may_be_the_leftover():
    with pytest.raises(ValueError, match='only the last recovery operator may be the leftover "O"'):
        RecoveryOperation(1, ("O", "a"), [np.eye(2), np.zeros((2, 2))])
    rec = RecoveryOperation(1, ("a", "O"), [np.zeros((2, 2)), np.eye(2)])
    assert np.array_equal(rec.leftover, np.eye(2)) and len(rec.operators()) == 1


def test_fletcher_recovery_structure():
    code = q.leung4()
    even = q.fletcher_recovery(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert max_abs(even.stack[0] - code.projector) <= 1e-12

    rng = np.random.default_rng(42)
    for _ in range(10):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        rec = q.fletcher_recovery(a, b)
        assert rec.completeness_defect() <= 1e-10
        r1, r2 = rec.stack[0], rec.stack[1]
        block = dagger(r1) @ r1 + dagger(r2) @ r2
        expected = sum(
            np.outer(ket(s), ket(s).conj()) for s in ("0000", "0011", "1100", "1111")
        )
        assert max_abs(block - expected) <= 1e-12


def test_fletcher_recovery_rejects_bad_constraint():
    with pytest.raises(ValueError):
        q.fletcher_recovery(1.0, 0.5)


@pytest.mark.parametrize("a, b", [(float("nan"), 1.0), (1.0, float("nan")),
                                  (complex(0.6, float("nan")), 0.8)])
def test_fletcher_recovery_rejects_nan_parameters(a, b):
    with pytest.raises(ValueError, match="parameters must satisfy"):
        q.fletcher_recovery(a, b)


def test_all_recoveries_trace_preserving():
    recoveries = [q.repetition_recovery(), q.cp_recovery()]
    for gamma in (0.0, 0.05, 0.3, 0.9):
        recoveries.append(q.standard_ad_recovery(gamma))
    opt = q.closed_form_optimum(0.07)
    recoveries.append(q.fletcher_recovery(opt.a_bar, opt.b_bar))
    for rec in recoveries:
        assert rec.completeness_defect() <= 1e-10
