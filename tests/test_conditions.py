import warnings
from itertools import combinations

import numpy as np
import pytest

import qecwb as q
from qecwb.conditions import EXACT_TOL, FIRST_ORDER_SLOPE, ZERO_FLOOR, weight_le1_ad_errors
from qecwb.linalg import max_abs
from test_channels import WEIGHT_ERROR


def subset(channel, rows):
    """The channel's Kraus operators at ``rows``, with their labels, as one error set."""
    rows = list(rows)
    return q.KrausChannel(channel.n_qubits, [channel.labels[i] for i in rows], channel.stack[rows])


def ad_errors(gamma, labels=None):
    channel = q.enlarge(q.ad_single(gamma), 4)
    if labels is None:
        return channel
    return subset(channel, [channel.labels.index(lab) for lab in labels])


def ad_op(gamma, label):
    return ad_errors(gamma, [label]).stack[0]


def bitflip_errors(p, count=8):
    return subset(q.enlarge(q.bitflip_single(p), 3), range(count))


def test_detectability_matrix_elements_of_no_damp_error():
    gamma = 0.1
    code = q.leung4()
    a = ad_op(gamma, "0000")
    zero, one = code.codewords
    assert abs(zero.conj() @ a @ zero - (1 - gamma + gamma**2 / 2)) <= 1e-14
    assert abs(one.conj() @ a @ one - (1 - gamma)) <= 1e-14
    report = q.detectability(code, a)
    assert abs(zero.conj() @ a @ one) <= 1e-14
    assert abs(one.conj() @ a @ zero) <= 1e-14
    # the diagonal mismatch is second order: lambda averages the two entries
    assert abs(report.lam - (1 - gamma + gamma**2 / 4)) <= 1e-14


def test_detectability_weight2_failure():
    gamma = 0.1
    code = q.leung4()
    a = ad_op(gamma, "1100")
    zero, one = code.codewords
    report = q.detectability(code, a)
    assert not report.residual <= EXACT_TOL
    assert abs(zero.conj() @ a @ one - gamma / 2) <= 1e-14
    assert abs(one.conj() @ a @ zero - gamma * (1 - gamma) / 2) <= 1e-14


def test_detectability_full_flip_failure():
    gamma = 0.1
    code = q.leung4()
    a = ad_op(gamma, "1111")
    zero, one = code.codewords
    assert abs(zero.conj() @ a @ zero - gamma**2 / 2) <= 1e-15
    assert abs(one.conj() @ a @ one) <= 1e-15
    assert not q.detectability(code, a).residual <= EXACT_TOL


def test_first_order_detectable_set_matches_expected():
    labels = [t.label for t in q.enlarge(q.ad_single(0.1), 4).kraus]

    def family(label):
        return lambda g: (q.leung4(), ad_op(g, label))

    detected = {lab for lab in labels if q.detectable_to_first_order(family(lab))}
    assert detected == set(labels) - {"0011", "1100", "1111"}


def test_detectability_structure_at_fixed_gammas():
    # the same split holds pointwise at gamma in {0.05, 0.1, 0.2}
    for gamma in (0.05, 0.1, 0.2):
        code = q.leung4()
        zero, one = code.codewords
        channel = ad_errors(gamma)
        for label, op in zip(channel.labels, channel.stack):
            report = q.detectability(code, op)
            if label in ("1100", "0011"):
                assert max(abs(zero.conj() @ op @ one), abs(one.conj() @ op @ zero)) > 1e-3
            elif label == "1111":
                assert report.residual > 1e-5 and abs(report.lam) < 2 * gamma**2
            elif label == "0000":
                assert report.residual <= gamma**2 and abs(report.lam) > 0.5
            else:
                assert report.residual <= EXACT_TOL  # exactly zero block


def test_detectability_scalar_multiples():
    gamma = 0.1

    def family(scale, label):
        return lambda g: (q.leung4(), scale * ad_op(g, label))

    for scale in (2.0, -3.0, 1j, 0.5):
        assert q.detectable_to_first_order(family(scale, "0000"))
        assert not q.detectable_to_first_order(family(scale, "1111"))
    # exact verdicts are phase invariant
    code = q.leung4()
    a = ad_op(gamma, "1010")
    for phase in (1.0, -1.0, 1j, np.exp(0.3j)):
        assert q.detectability(code, phase * a).residual <= EXACT_TOL


@pytest.mark.parametrize("a", [np.eye(8), np.ones((16, 8)), np.ones(16)],
                         ids=["small", "rectangular", "vector"])
def test_detectability_names_mismatched_dimensions(a):
    with pytest.raises(ValueError, match="code and error dimensions differ"):
        q.detectability(q.leung4(), a)


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
    gram = q.kl_gram(code, q.KrausChannel(4, ("id",), [np.eye(16, dtype=complex)]))
    assert max_abs(gram.blocks[("id", "id")] - np.eye(2)) <= 1e-12


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
        for rows in combinations(range(4), size):
            assert q.exact_correctable(code, subset(errors, rows)).exact


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


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.1, 1.0])
def test_weight_le1_errors_are_the_first_enlarged_rows(gamma):
    channel = ad_errors(gamma)
    assert channel.labels[:5] == q.conditions.WEIGHT_LE1_LABELS
    five = weight_le1_ad_errors(gamma)
    assert five.labels == q.conditions.WEIGHT_LE1_LABELS
    for label, row in zip(five.labels, five.stack):
        assert row.tobytes() == channel.stack[channel.labels.index(label)].tobytes()


@pytest.mark.parametrize(
    "gammas", [(), (1e-3,), (1e-3, 1e-3, 1e-3), (0.0, 1e-3, 1e-2)]
)
def test_noise_sweep_needs_two_distinct_samples_in_range(gammas):
    pair = {p.index_pair: p for p in q.enumerate_pairs()}[(1, 7)]
    with pytest.raises(ValueError):
        q.classify_pair(pair, gammas)
    with pytest.raises(ValueError):
        q.violation_order(lambda g: (q.leung4(), ad_errors(g)), gammas=gammas)


def test_detection_probability_completeness_and_values():
    gamma = 0.1
    code = q.leung4()
    full = ad_errors(gamma)
    assert abs(q.detection_probability(code, full, code.zero_logical) - 1.0) <= 1e-12

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
            assert q.detection_probability(code, subset(errors, range(size)), psi) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        q.detection_probability(code, errors, np.eye(16)[2])


def bitflip_family(g):
    return q.leung4(), bitflip_errors(g)


def empty_errors():
    return q.KrausChannel(4, (), np.zeros((0, 16, 16)))


@pytest.mark.parametrize("check", [
    lambda: q.exact_correctable(q.leung4(), empty_errors()),
    lambda: q.kl_gram(q.leung4(), empty_errors()),
    lambda: q.violation_order(lambda g: (q.leung4(), empty_errors())),
], ids=["exact_correctable", "kl_gram", "violation_order"])
def test_kernels_name_an_empty_error_set(check):
    # an error set is a channel, and a channel of no Kraus operators cannot be built
    with pytest.raises(ValueError, match="needs one or more 16 x 16 Kraus operators"):
        check()


@pytest.mark.parametrize("check", [
    lambda: q.exact_correctable(q.leung4(), bitflip_errors(0.1)),
    lambda: q.kl_gram(q.leung4(), bitflip_errors(0.1)),
    lambda: q.violation_order(bitflip_family),
    lambda: q.detection_probability(q.leung4(), bitflip_errors(0.1), q.leung4().zero_logical),
], ids=["exact_correctable", "kl_gram", "violation_order", "detection_probability"])
def test_kernels_name_errors_of_the_wrong_dimension(check):
    # 8 x 8 bit-flip errors against the 16-dimensional four-qubit code
    with pytest.raises(ValueError, match="code and error dimensions differ"):
        check()


@pytest.mark.parametrize("state", [np.ones(8) / np.sqrt(8), np.ones((16, 2)) / 4, np.ones(17)])
def test_states_of_another_shape_are_named(state):
    code = q.leung4()
    with pytest.raises(ValueError, match="state and code dimensions differ"):
        code.contains(state)
    with pytest.raises(ValueError, match="state and code dimensions differ"):
        q.detection_probability(code, weight_le1_ad_errors(0.1), state)


def test_noise_sweep_accepts_exactly_two_distinct_samples():
    pair = {p.index_pair: p for p in q.enumerate_pairs()}[(1, 6)]
    for gammas in [(1e-3, 1e-2), (1e-3, 1e-3, 1e-2)]:
        good = q.classify_pair(pair, gammas)
        assert good.good and abs(good.slope - 2.0) <= 0.1
        order = q.violation_order(lambda g: (pair, weight_le1_ad_errors(g)), gammas)
        assert order.first_order_correctable and abs(order.slope - 2.0) <= 0.1


def test_samples_too_close_to_fix_a_slope_raise():
    # distinct, so the sweep is valid, but their logarithms are too close for a fit
    gammas = (1e-3, float(np.nextafter(1e-3, 1.0)))
    with pytest.raises(ValueError, match="too close to fix a log-log slope"):
        q.classify_pair(q.enumerate_pairs()[1], gammas)
    with pytest.raises(ValueError, match="too close to fix a log-log slope"):
        q.violation_order(lambda g: (q.leung4(), weight_le1_ad_errors(g)), gammas)


def test_exact_correctable_names_no_witness_when_every_violation_is_zero():
    identity = q.KrausChannel(3, ("id",), [np.eye(8, dtype=complex)])
    assert q.exact_correctable(q.repetition3(), identity) == (True, 0.0, None)


def test_violation_order_reads_classify_pairs_overall_slope():
    # one fit, one column layout: the worst pair's slope is the same number in both
    for pair in q.enumerate_pairs():
        order = q.violation_order(lambda g: (pair, weight_le1_ad_errors(g)))
        assert order.slope == q.classify_pair(pair).slope


def test_the_rank_cut_is_polyfits_relative_to_the_sample_count():
    # the scaled design's singular values differ by 1.47 eps: rank 1 at polyfit's
    # rcond of 2 eps (two samples), rank 2 at machine precision
    gammas = (5e-4, 0.0005000000000000053)
    with pytest.raises(ValueError, match="too close to fix a log-log slope"):
        q.classify_pair(q.enumerate_pairs()[1], gammas)


def test_exact_sets_on_samples_too_close_to_fix_a_slope_raise():
    # every violation vanishes, but the sweep still cannot fix a slope, as in classify_pair
    gammas = (1e-3, float(np.nextafter(1e-3, 1.0)))
    with pytest.raises(ValueError, match="too close to fix a log-log slope"):
        q.violation_order(lambda g: (q.repetition3(), bitflip_errors(g, 4)), gammas)


def flip_error(lam, c):
    """lam I + c |000><111| on three qubits.  On the repetition code its detection amplitude
    is lam and its detectability residual c, and as an error set its only Knill-Laflamme
    violation is c: every product behind them is exact."""
    op = lam * np.eye(8, dtype=complex)
    op[0, 7] = c
    return op


def flip_errors(c):
    return q.KrausChannel(3, ("a",), [flip_error(1.0, c)])


def test_exact_correctable_gate_includes_its_tolerance():
    verdict = q.exact_correctable(q.repetition3(), flip_errors(EXACT_TOL))
    assert verdict.violation == EXACT_TOL and verdict.exact
    assert not q.exact_correctable(q.repetition3(), flip_errors(2 * EXACT_TOL)).exact


def test_violations_at_the_zero_floor_count_as_zero():
    assert q.violation_order(lambda g: (q.repetition3(), flip_errors(ZERO_FLOOR))) == (True, None)
    assert not q.violation_order(lambda g: (q.repetition3(), flip_errors(2 * ZERO_FLOOR))).exact


def test_first_order_slope_gate_includes_its_value():
    assert q.ViolationOrder(False, FIRST_ORDER_SLOPE).first_order_correctable
    below = float(np.nextafter(FIRST_ORDER_SLOPE, 0.0))
    assert not q.ViolationOrder(False, below).first_order_correctable


def test_residuals_at_the_zero_floor_count_as_zero():
    assert q.detectable_to_first_order(lambda g: (q.repetition3(), flip_error(1.0, ZERO_FLOOR)))


@pytest.mark.parametrize("lam, residual", [
    (lambda g: 1.0, lambda g: ZERO_FLOOR * (g / 1e-4) ** 2),  # residual at the floor at 1e-4
    (lambda g: ZERO_FLOOR, lambda g: g**2),  # amplitude at the floor everywhere
], ids=["residual", "amplitude"])
def test_a_sweep_that_touches_the_zero_floor_is_not_detectable(lam, residual):
    # fitted instead, each would read as a residual that outgrows its amplitude by two orders
    family = lambda g: (q.repetition3(), flip_error(lam(g), residual(g)))
    assert q.detectability(*family(1e-4)) == (lam(1e-4), residual(1e-4))
    assert not q.detectable_to_first_order(family)


def entry_errors(value):
    """The identity on three qubits with ``value`` as its first entry, as one error set."""
    op = np.eye(8, dtype=complex)
    op[0, 0] = value
    return q.KrausChannel(3, ("a",), [op])


def damping_with_entry(value):
    stack = weight_le1_ad_errors(0.1).stack.copy()
    stack[2, 3, 3] = value
    return q.KrausChannel(4, q.conditions.WEIGHT_LE1_LABELS, stack)


NOT_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, -np.inf), 1e200],
                                     ids=["nan", "inf", "-inf", "-infj", "overflow"])


@NOT_FINITE
def test_error_sets_that_are_not_finite_are_named(value):
    # NaN fails every comparison: unchecked, the verdict read (False, nan, None), kl_gram's
    # diag_eigs (nan, nan) and the detection probability nan.  The channel's entry gate
    # refuses each error set before any kernel, and before numpy's warning of inf * 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=WEIGHT_ERROR):
            q.exact_correctable(q.repetition3(), entry_errors(value))
        with pytest.raises(ValueError, match=WEIGHT_ERROR):
            q.violation_order(lambda g: (q.repetition3(), entry_errors(value)))
        with pytest.raises(ValueError, match=WEIGHT_ERROR):
            q.exact_correctable(q.leung4(), damping_with_entry(value))
        with pytest.raises(ValueError, match=WEIGHT_ERROR):
            q.kl_gram(q.repetition3(), entry_errors(value))
        with pytest.raises(ValueError, match=WEIGHT_ERROR):
            q.kl_gram(q.leung4(), damping_with_entry(value))
        with pytest.raises(ValueError, match=WEIGHT_ERROR):
            q.detection_probability(q.repetition3(), entry_errors(value), q.repetition3().zero_logical)


@NOT_FINITE
def test_a_raw_error_or_state_that_is_not_finite_is_named(value):
    # Unchecked, a NaN error read DetectabilityReport(nan, nan) and first-order detectability
    # False; a state of 1e200 lies in the repetition code exactly, and its images overflow.
    error = np.eye(16, dtype=complex)
    error[3, 5] = value
    state = np.zeros(8, dtype=complex)
    state[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="error operator must be finite"):
            q.detectability(q.leung4(), error)
        with pytest.raises(ValueError, match="error operator must be finite"):
            q.detectable_to_first_order(lambda g: (q.leung4(), error))
        with pytest.raises(ValueError, match="state must be finite"):
            q.detection_probability(q.repetition3(), bitflip_errors(0.1), state)


# Three samples, one from each of the code search's ranges, and three triples
# that each share one of them, so a memo keyed on part of a triple reads stale rows.
TRIPLE = (1.5e-4, 2e-3, 6e-3)
SHARING = [(1.5e-4, 1.2e-3, 5e-3), (2.5e-4, 2e-3, 9e-3), (1.1e-4, 2.8e-3, 6e-3)]


def classify_all(gammas, cold=False):
    """Every pair's classification; ``cold`` empties the search's memos before each one."""
    results = []
    for pair in q.enumerate_pairs():
        if cold:
            q.conditions._search_orders.cache_clear()
        results.append(q.classify_pair(pair, gammas))
    return results


def test_search_orders_from_a_warm_memo_equal_a_cold_one():
    cold = {gammas: classify_all(gammas, cold=True) for gammas in [TRIPLE] + SHARING}
    for gammas in SHARING:
        assert classify_all(TRIPLE) == cold[TRIPLE]
        assert classify_all(gammas) == cold[gammas], gammas
    q.channels._enlarge_pair.cache_clear()  # rebuilt enlargements miss the memo
    assert classify_all(TRIPLE) == cold[TRIPLE]


def test_search_orders_hold_each_shared_pairs_read_only_slopes_and_flags():
    search = q.conditions._search_orders(TRIPLE, *(q.enlarge(q.ad_single(g), 4) for g in TRIPLE))
    assert list(search) == list(q.codes._pairs())  # the shared pairs, by identity (pairs compare so)
    for slopes, vanishing in search.values():
        assert slopes.dtype == float and vanishing.dtype == bool
        for fit in (slopes, vanishing):
            assert not fit.flags.writeable and fit.shape == (16,)
            with pytest.raises(ValueError):
                fit[0] = fit[1]


def hand_built(codewords_of, index_pair):
    """A pair that no search shares: the codewords of shared pair ``codewords_of``, labeled
    ``index_pair``."""
    shared = {p.index_pair: p for p in q.enumerate_pairs()}[codewords_of]
    return q.SelfComplementaryPair(4, *shared.codewords, index_pair=index_pair), shared


def classification_bits(result):
    slope = None if result.slope is None else result.slope.hex()
    return result.good, result.witness, slope


@pytest.mark.parametrize("gammas", [TRIPLE] + SHARING)
@pytest.mark.parametrize("codewords_of, index_pair", [
    ((1, 6), (1, 6)),  # the same codewords as a shared pair, its index pair too
    ((1, 6), (2, 3)),  # a good pair's codewords under a bad pair's index pair
    ((2, 3), (1, 6)),
    ((7, 8), (9, 10)),  # an index pair no shared pair has
], ids=["same", "good-as-bad", "bad-as-good", "no-column"])
def test_hand_built_pairs_are_classified_from_their_own_codewords(gammas, codewords_of, index_pair):
    pair, shared = hand_built(codewords_of, index_pair)
    for cold in (True, False):
        if cold:
            q.conditions._search_orders.cache_clear()
        got, expected = q.classify_pair(pair, gammas), q.classify_pair(shared, gammas)
        assert got.index_pair == index_pair
        assert classification_bits(got) == classification_bits(expected), cold


def test_classify_pair_asks_enlarge_once_per_sample(monkeypatch):
    calls = []

    def counting(channel, n):
        calls.append(n)
        return q.channels.enlarge(channel, n)

    monkeypatch.setattr(q.conditions, "enlarge", counting)
    pair = q.enumerate_pairs()[5]
    for gammas in (TRIPLE, TRIPLE, SHARING[0]):
        del calls[:]
        q.classify_pair(pair, gammas)
        assert calls == [4, 4, 4], gammas


def test_classify_pair_names_a_code_that_is_not_a_pair_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(q.conditions, "enlarge", lambda channel, n: calls.append(n))
    for code in (q.leung4(), q.repetition3()):
        with pytest.raises(ValueError, match="^classify_pair expects a SelfComplementaryPair, got "
                                             "QuantumCode$"):
            q.classify_pair(code)
    assert calls == []


def test_classify_pair_names_a_three_qubit_pair_by_its_dimension():
    pair = q.SelfComplementaryPair(3, *q.repetition3().codewords, index_pair=(1, 2))
    with pytest.raises(ValueError, match="code and error dimensions differ"):
        q.classify_pair(pair)
