from itertools import combinations

import numpy as np
import pytest

import qecwb as q
from qecwb.conditions import weight_le1_ad_errors
from qecwb.linalg import max_abs


def ad_errors(gamma, labels=None):
    by_label = {t.label: t.op for t in q.enlarge(q.ad_single(gamma), 4).kraus}
    if labels is None:
        labels = list(by_label)
    return [(lab, by_label[lab]) for lab in labels]


def bitflip_errors(p, count=8):
    ch = q.enlarge(q.bitflip_single(p), 3)
    return [(t.label, t.op) for t in ch.kraus][:count]


def test_detectability_matrix_elements_of_no_damp_error():
    gamma = 0.1
    code = q.leung4()
    a = dict(ad_errors(gamma))["0000"]
    zero, one = code.codewords
    assert abs(zero.conj() @ a @ zero - (1 - gamma + gamma**2 / 2)) <= 1e-14
    assert abs(one.conj() @ a @ one - (1 - gamma)) <= 1e-14
    report = q.detectability(code, a, tol=np.inf, label="0000")
    assert abs(zero.conj() @ a @ one) <= 1e-14
    assert abs(one.conj() @ a @ zero) <= 1e-14
    # the diagonal mismatch is second order: lambda averages the two entries
    assert abs(report.lam - (1 - gamma + gamma**2 / 4)) <= 1e-14


def test_detectability_weight2_failure():
    gamma = 0.1
    code = q.leung4()
    a = dict(ad_errors(gamma))["1100"]
    zero, one = code.codewords
    report = q.detectability(code, a, label="1100")
    assert not report.verdict
    assert abs(zero.conj() @ a @ one - gamma / 2) <= 1e-14
    assert abs(one.conj() @ a @ zero - gamma * (1 - gamma) / 2) <= 1e-14


def test_detectability_full_flip_failure():
    gamma = 0.1
    code = q.leung4()
    a = dict(ad_errors(gamma))["1111"]
    zero, one = code.codewords
    assert abs(zero.conj() @ a @ zero - gamma**2 / 2) <= 1e-15
    assert abs(one.conj() @ a @ one) <= 1e-15
    assert not q.detectability(code, a).verdict


def test_first_order_detectable_set_matches_expected():
    labels = [t.label for t in q.enlarge(q.ad_single(0.1), 4).kraus]

    def family(label):
        return lambda g: (q.leung4(), dict(ad_errors(g))[label])

    detected = {lab for lab in labels if q.detectable_to_first_order(family(lab))}
    assert detected == set(labels) - {"0011", "1100", "1111"}


def test_detectability_structure_at_fixed_gammas():
    # the same split holds pointwise at gamma in {0.05, 0.1, 0.2}
    for gamma in (0.05, 0.1, 0.2):
        code = q.leung4()
        zero, one = code.codewords
        for label, op in ad_errors(gamma):
            report = q.detectability(code, op, label=label)
            if label in ("1100", "0011"):
                assert max(abs(zero.conj() @ op @ one), abs(one.conj() @ op @ zero)) > 1e-3
            elif label == "1111":
                assert report.residual > 1e-5 and abs(report.lam) < 2 * gamma**2
            elif label == "0000":
                assert report.residual <= gamma**2 and abs(report.lam) > 0.5
            else:
                assert report.verdict  # exactly zero block


def test_detectability_scalar_multiples():
    gamma = 0.1

    def family(scale, label):
        return lambda g: (q.leung4(), scale * dict(ad_errors(g))[label])

    for scale in (2.0, -3.0, 1j, 0.5):
        assert q.detectable_to_first_order(family(scale, "0000"))
        assert not q.detectable_to_first_order(family(scale, "1111"))
    # exact verdicts are phase invariant
    code = q.leung4()
    a = dict(ad_errors(gamma))["1010"]
    for phase in (1.0, -1.0, 1j, np.exp(0.3j)):
        assert q.detectability(code, phase * a).verdict


def test_kl_gram_repetition_code():
    p = 0.2
    gram = q.kl_gram(q.repetition3(), bitflip_errors(p))
    low, high = gram.diag_eigs["000"]
    assert abs(low - (1 - p) ** 3) <= 1e-12
    assert abs(high - (1 - p) ** 3) <= 1e-12


def test_kl_gram_leung_eigenvalues():
    gamma = 0.1
    gram = q.kl_gram(q.leung4(), ad_errors(gamma, ["0000"]))
    low, high = gram.diag_eigs["0000"]
    assert abs(low - 0.81) <= 1e-12
    assert abs(high - 0.82805) <= 1e-12


def test_kl_gram_identity_error():
    code = q.leung4()
    gram = q.kl_gram(code, [("id", np.eye(16, dtype=complex))])
    assert max_abs(gram.block("id", "id") - np.eye(2)) <= 1e-12


def test_kl_gram_diag_pairs_are_psd_ordered():
    gram = q.kl_gram(q.leung4(), ad_errors(0.13))
    for low, high in gram.diag_eigs.values():
        assert low <= high + 1e-15
        assert low >= -1e-12


def test_exact_correctable_bitflip_sets():
    code = q.repetition3()
    for p in (0.1, 0.5, 0.9):
        verdict = q.exact_correctable(code, bitflip_errors(p, 4))
        assert verdict.exact
        assert verdict.violation <= 1e-10

    p = 0.2
    verdict = q.exact_correctable(code, bitflip_errors(p, 5))
    assert not verdict.exact
    assert abs(verdict.violation - np.sqrt(p**3 * (1 - p) ** 3)) <= 1e-12
    assert set(verdict.witness_pair) == {"001", "110"}


def test_exact_correctable_monotone_on_subsets():
    code = q.repetition3()
    errors = bitflip_errors(0.3, 4)
    for size in range(1, 5):
        for subset in combinations(errors, size):
            assert q.exact_correctable(code, list(subset)).exact


def test_leung_correctable_set_violation_is_second_order():
    gamma = 0.1
    verdict = q.exact_correctable(q.leung4(), ad_errors(gamma, list(q.conditions.WEIGHT_LE1_LABELS)))
    assert not verdict.exact
    assert abs(verdict.violation - gamma**2 * (2 - gamma) ** 2 / 2) <= 1e-13
    assert verdict.witness_pair == ("0000", "0000")


def test_violation_order_branches():
    def leung_family(g):
        return q.leung4(), ad_errors(g, list(q.conditions.WEIGHT_LE1_LABELS))

    order = q.violation_order(leung_family)
    assert not order.exact
    assert abs(order.slope - 2.0) <= 0.1
    assert order.first_order_correctable

    bad_code = q.enumerate_pairs()[0].as_code()  # pair (1, 2)

    def bad_family(g):
        return bad_code, ad_errors(g, ["0000", "1000"])

    order = q.violation_order(bad_family)
    assert order.slope < 1.9
    assert not order.first_order_correctable

    def exact_family(g):
        return q.repetition3(), bitflip_errors(g, 4)

    order = q.violation_order(exact_family)
    assert order.exact and order.first_order_correctable


def test_violation_order_rejects_bad_grid():
    with pytest.raises(ValueError):
        q.violation_order(lambda g: (q.leung4(), ad_errors(g)), gammas=[0.1])
    with pytest.raises(ValueError):
        q.violation_order(lambda g: (q.leung4(), ad_errors(g)), gammas=[0.0, 0.01])


def test_classify_pair_examples():
    pairs = {p.index_pair: p for p in q.enumerate_pairs()}
    good = q.classify_pair(pairs[(1, 6)])
    assert good.good and good.witness is None
    assert abs(good.slope - 2.0) <= 0.1

    bad = q.classify_pair(pairs[(1, 2)])
    assert not bad.good and bad.witness == ("0000", "1000")

    bad = q.classify_pair(pairs[(7, 8)])
    assert not bad.good and bad.witness == ("0010", "0001")


@pytest.mark.parametrize(
    "gammas", [(), (1e-3,), (1e-3, 1e-3, 1e-3), (0.0, 1e-3, 1e-2)]
)
def test_noise_sweep_needs_two_distinct_samples_in_range(gammas):
    pair = {p.index_pair: p for p in q.enumerate_pairs()}[(1, 7)]
    with pytest.raises(ValueError):
        q.classify_pair(pair, gammas)
    with pytest.raises(ValueError):
        q.violation_order(lambda g: (q.leung4(), ad_errors(g)), gammas=gammas)
    with pytest.raises(ValueError):
        q.detectable_to_first_order(lambda g: (q.leung4(), dict(ad_errors(g))["1000"]), gammas)


def test_detection_probability_completeness_and_values():
    gamma = 0.1
    code = q.leung4()
    full = ad_errors(gamma)
    assert abs(q.detection_probability(code, full, code.zero_logical) - 1.0) <= 1e-12
    assert q.detection_probability(code, [], code.one_logical) == 0.0

    five = weight_le1_ad_errors(gamma)
    got = q.detection_probability(code, five, code.zero_logical)
    expected = (1 + (1 - gamma) ** 4) / 2 + 2 * gamma * (1 - gamma) ** 3
    assert abs(got - expected) <= 1e-12

    # averaged over the codespace the retained detection weight dominates the
    # achieved fidelity of the matched recovery
    avg = 0.5 * (
        got + q.detection_probability(code, five, code.one_logical)
    )
    f = q.entanglement_fidelity(code, q.standard_ad_recovery(gamma), q.enlarge(q.ad_single(gamma), 4)).value
    assert avg >= f


def test_detection_probability_bounds_and_validation():
    rng = np.random.default_rng(31)
    code = q.leung4()
    errors = ad_errors(0.2)
    for _ in range(25):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        psi = (alpha * code.zero_logical + beta * code.one_logical) / norm
        for size in (1, 5, 16):
            assert q.detection_probability(code, errors[:size], psi) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        q.detection_probability(code, errors, np.eye(16)[2])
