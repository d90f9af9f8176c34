"""The stacked-array kernel against the per-term loops it replaced.

The loop forms here are the plain definitions: a per-operator sum of
A^dag A in ``completeness_defect``, one ``np.kron`` per label in
``enlarge`` (bitwise equal, whether the result comes from the cache or is
rebuilt, and byte for byte on random complex pairs with signed zeros), a
double loop over (k, l) codespace-restricted traces in
``entanglement_fidelity``, one Gram matrix and trace per operator in
``baseline_no_qec`` (and, byte for byte, its ``np.trace``/``np.eye`` form and its
form that gates and weights whole numpy arrays, non-finite entries included), the
per-operator products A_l V behind ``entanglement_fidelity`` (byte for byte),
``np.vdot`` blocks in ``kl_gram`` and the direct
(G, L, d, 2) contraction in ``_gram_blocks`` (bitwise), the batched
``ops @ isometry`` product behind ``_images`` and ``np.polyfit`` behind
``_fit_slope`` (byte for byte; where polyfit warns of rank, the fit raises), each shared
pair's own fit behind the code search's one fit of all 28 (byte for byte), a strict ``>``
scan over error pairs in ``exact_correctable``, one block set per gamma and
one ``polyfit`` per error pair in ``classify_pair``, and one dense
permutation matrix per candidate in ``permutation_equivalent``, a
scan that re-evaluates the curves at every comparison in
``threshold_analysis``, and the standard, code-projected and
channel-adapted damping recoveries written out by hand, one operator at a
time, against the one family builder behind them, and a golden-section
search that builds validated parameters and the whole closed form at every
step in ``numeric_optimum``.  Byte for byte, they also check
``completeness_defect`` against its ``np.eye`` form, the damping recoveries'
stacks against their conversion from operator lists (the standard member's
parameters from numpy's norm form), and the single-qubit
channels against nested lists and one ``np.sqrt`` call.  Exactly, they check
``classify_pair``'s verdicts and witnesses, and its slopes to 0.01, against the
weight <= 1 damping Knill-Laflamme blocks written as integer polynomials in
sqrt(gamma), whose lowest nonzero powers are the exact orders.  Random
single-qubit channels are cut from random 4 x 2 isometries, random
recoveries from random (K d) x d isometries on three and four qubits.
"""

import math
import warnings
from functools import reduce
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qecwb as q
from qecwb.channels import _ENLARGE_CACHE_SIZE, KrausChannel
from qecwb.conditions import _fit_slope, _gram_blocks, _pair_violations, _scaling_orders, _sweep_columns
from qecwb.fidelity import THRESHOLD_TOL, _channel_factors
from qecwb.linalg import _images, completeness_defect, dagger, ket, max_abs
from qecwb.recovery import RecoveryOperation
from test_channels import WEIGHT_ERROR
from test_conditions import SHARING, TRIPLE

TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
qubits = st.sampled_from((3, 4))
oracle_settings = settings(max_examples=40, deadline=None)


def random_isometry(rng, rows, cols):
    """Orthonormal columns from the QR factor of a complex Gaussian matrix."""
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(m)[0]


def random_single_channel(rng):
    v = random_isometry(rng, 4, 2)
    return KrausChannel(1, ("0", "1"), [v[:2], v[2:]])


def random_code(rng, n):
    v = random_isometry(rng, 2**n, 2)
    return q.QuantumCode(n, v[:, 0], v[:, 1])


def random_recovery(rng, n, n_ops, with_leftover):
    dim = 2**n
    blocks = n_ops + int(with_leftover)
    w = random_isometry(rng, blocks * dim, dim)
    ops = [w[i * dim:(i + 1) * dim] for i in range(blocks)]
    labels = tuple("r%d" % i for i in range(n_ops)) + ("O",) * with_leftover
    return RecoveryOperation(n, labels, ops)


# ---- the loop forms --------------------------------------------------------


def loop_completeness_defect(ops):
    """max |sum_k A_k^dag A_k - I|, one product per operator."""
    acc = sum(op.conj().T @ op for op in ops)
    return np.max(np.abs(acc - np.eye(ops[0].shape[0])))


def loop_enlarge(channel, n):
    """Labels by ascending weight, higher-index bitstrings first; one kron each."""
    single = {t.label: t.op for t in channel.kraus}
    labels = sorted(
        ("".join(bits) for bits in product("01", repeat=n)),
        key=lambda b: (b.count("1"), -int(b, 2)),
    )
    return [(b, reduce(np.kron, [single[c] for c in b])) for b in labels]


def loop_terms(code, recovery, channel):
    zero, one = code.codewords
    rows = list(enumerate(recovery.operators()))
    if recovery.leftover is not None:
        rows.append(("O", recovery.leftover))
    terms = []
    for k, r in rows:
        for l, a in enumerate(channel.stack):
            op = r @ a
            terms.append(((k, l), zero.conj() @ op @ zero + one.conj() @ op @ one))
    return terms


def loop_baseline_no_qec(channel):
    """(1/4) sum_k w_k |Tr A_k|**2; w_k is the branch probability when A_k^dag A_k ~ I, else 1."""
    total = 0.0
    eye = np.eye(channel.dim)
    for t in channel.kraus:
        gram = dagger(t.op) @ t.op
        prob = float(np.real(np.trace(gram))) / channel.dim
        if max_abs(gram - prob * eye) <= 1e-12:
            total += prob * abs(np.trace(t.op)) ** 2
        else:
            total += abs(np.trace(t.op)) ** 2
    return 0.25 * total


def trace_form_baseline_no_qec(channel):
    """``baseline_no_qec`` written with ``np.trace`` and ``np.eye``, as it was before the
    diagonals were added by hand; it must agree bit for bit."""
    stack = channel.stack
    grams = stack.conj().transpose(0, 2, 1) @ stack
    probs = np.trace(grams, axis1=1, axis2=2).real / channel.dim
    unitary = np.abs(grams - probs[:, None, None] * np.eye(channel.dim)).max(axis=(1, 2)) <= 1e-12
    weights = np.where(unitary, probs, 1.0).tolist()
    total = 0.0
    for weight, trace in zip(weights, np.trace(stack, axis1=1, axis2=2).tolist()):
        total += weight * abs(trace) ** 2
    return 0.25 * total


def loop_kl(code, errors):
    zero, one = code.codewords
    images = {label: (op @ zero, op @ one) for label, op in zip(errors.labels, errors.stack)}
    blocks, eigs = {}, {}
    for l, li in images.items():
        for m, mi in images.items():
            block = np.array([[np.vdot(li[i], mi[j]) for j in range(2)] for i in range(2)])
            blocks[(l, m)] = block
            if l == m:
                eigs[l] = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
    return blocks, eigs


def loop_pair_violation(block):
    return float(max(abs(block[0, 1]), abs(block[1, 0]), abs(block[0, 0] - block[1, 1])))


def loop_exact_correctable(code, errors):
    """Scan pairs l <= m in order; a later pair wins only when strictly worse."""
    blocks = loop_kl(code, errors)[0]
    labels = errors.labels
    worst, witness = 0.0, None
    for i, l in enumerate(labels):
        for m in labels[i:]:
            v = loop_pair_violation(blocks[(l, m)])
            if v > worst:
                worst, witness = v, (l, m)
    return worst, witness


def loop_classify(pair, gammas):
    """(good, witness, slope) from per-gamma blocks and one fit per error pair."""
    code = pair.as_code()
    labels = q.conditions.WEIGHT_LE1_LABELS
    per_gamma = [loop_kl(code, q.weight_le1_ad_errors(g))[0] for g in gammas]

    def vanishing(values):
        return all(v <= q.conditions.ZERO_FLOOR for v in values)

    def slope(values):
        return float(np.polyfit(np.log(gammas), np.log(np.maximum(values, 1e-300)), 1)[0])

    failing = []
    for i, l in enumerate(labels):
        for j, m in enumerate(labels[i:], start=i):
            vio = [loop_pair_violation(blocks[(l, m)]) for blocks in per_gamma]
            if not vanishing(vio) and slope(vio) < q.conditions.FIRST_ORDER_SLOPE:
                failing.append((i, j))
    overall = [
        max(loop_pair_violation(blocks[(l, m)]) for i, l in enumerate(labels) for m in labels[i:])
        for blocks in per_gamma
    ]
    witness = None
    if failing:
        i, j = max(failing)
        witness = (labels[i], labels[j])
    return not failing, witness, None if vanishing(overall) else slope(overall)


def permute_qubits_matrix(perm, n_qubits):
    """Unitary that rearranges qubits so new qubit j is old qubit perm[j].

    ``perm`` uses 0-based qubit positions with qubit 0 the leftmost
    (most significant) bit.
    """
    dim = 2**n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        bits = format(b, "0%db" % n_qubits)
        m[int("".join(bits[perm[j]] for j in range(n_qubits)), 2), b] = 1.0
    return m


def loop_permutation_equivalent(c1, c2, tol=1e-10):
    n = c1.n_qubits
    for perm in permutations(range(n)):
        m = permute_qubits_matrix(perm, n)
        if np.max(np.abs(m @ c1.projector @ m.conj().T - c2.projector)) <= tol:
            return perm
    return None


def ref_transfer(zero_source, one_source=None):
    """|0_L><s0| (+ |1_L><s1|) on the four-qubit code."""
    zero, one = q.leung4().codewords
    op = np.outer(zero, zero_source.conj())
    if one_source is not None:
        op += np.outer(one, one_source.conj())
    return op


def ref_damping_tail():
    """The eight transfers the code-projected and channel-adapted recoveries share."""
    return [
        ref_transfer(ket("0111"), ket("0100")),
        ref_transfer(ket("1011"), ket("1000")),
        ref_transfer(ket("1101"), ket("0001")),
        ref_transfer(ket("1110"), ket("0010")),
        ref_transfer(ket("1001")),
        ref_transfer(ket("1010")),
        ref_transfer(ket("0101")),
        ref_transfer(ket("0110")),
    ]


def ref_standard_recovery(gamma):
    """Five transfers on the damped basis, and the projector on six leftover kets."""
    one = q.leung4().one_logical
    plus = ket("0000") + (1.0 - gamma) ** 2 * ket("1111")
    minus = (1.0 - gamma) ** 2 * ket("0000") - ket("1111")
    v = [plus / np.linalg.norm(plus), one, ket("0111"), ket("0100"), ket("1011"),
         ket("1000"), ket("1101"), ket("0001"), ket("1110"), ket("0010")]
    leftovers = [ket("0101"), ket("0110"), ket("1001"), ket("1010"),
                 minus / np.linalg.norm(minus), (ket("0011") - ket("1100")) / np.sqrt(2)]
    ops = [ref_transfer(v[2 * k], v[2 * k + 1]) for k in range(5)]
    return ops, sum(np.outer(o, o.conj()) for o in leftovers)


def ref_cp_recovery():
    """The codespace projector, a reflection, and the shared eight."""
    r2_zero = (ket("0000") - ket("1111")) / np.sqrt(2)
    r2_one = (ket("0011") - ket("1100")) / np.sqrt(2)
    return [q.leung4().projector, ref_transfer(r2_zero, r2_one)] + ref_damping_tail()


def ref_fletcher_recovery(a, b):
    """Two (a, b)-dependent operators written row by row, and the shared eight."""
    zero, one = q.leung4().codewords
    r1_row = a * ket("0000") + b * ket("1111")
    r2_row = b.conjugate() * ket("0000") - a.conjugate() * ket("1111")
    r1 = np.outer(zero, r1_row) + np.outer(one, one.conj())
    r2 = np.outer(zero, r2_row) + np.outer(one, (ket("0011") - ket("1100")) / np.sqrt(2))
    return [r1, r2] + ref_damping_tail()


def loop_numeric_optimum(gamma, resolution=200):
    """Golden-section search scoring each angle through FletcherParams and the closed form."""

    def score(theta):
        p = q.FletcherParams(math.cos(theta), 0.0, math.sin(theta), 0.0)
        return q.fletcher_fidelity_closed(p, gamma)

    lo, hi = 0.0, math.pi / 2.0
    c = hi - q.fletcher.GOLDEN * (hi - lo)
    d = lo + q.fletcher.GOLDEN * (hi - lo)
    fc, fd = score(c), score(d)
    for _ in range(resolution):
        if hi - lo < 1e-12:
            break
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + q.fletcher.GOLDEN * (hi - lo)
            fd = score(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - q.fletcher.GOLDEN * (hi - lo)
            fc = score(c)
    theta = 0.5 * (lo + hi)
    step = 1e-4
    center = min(max(theta, step), math.pi / 2.0 - step)
    left, middle, right = score(center - step), score(center), score(center + step)
    curvature = left - 2.0 * middle + right
    if curvature < 0.0:
        theta = center + 0.5 * step * (left - right) / curvature
    return q.Optimum(math.cos(theta), math.sin(theta), score(theta))


def loop_threshold(fidelity_curve, baseline_curve, grid, tol=1e-10):
    """(useful range, threshold), evaluating the curves inside each comparison."""
    last_useful = -1
    for i, p in enumerate(grid):
        if fidelity_curve(p) < baseline_curve(p) - 1e-12:
            break
        last_useful = i
    useful = (float(grid[0]), float(grid[last_useful])) if last_useful >= 0 else None
    margin = lambda p: p - (1.0 - fidelity_curve(p))
    threshold = float(grid[-1])
    for i in range(1, len(grid)):
        if margin(grid[i]) < -1e-15 and margin(grid[i - 1]) >= 0:
            lo, hi = float(grid[i - 1]), float(grid[i])
            flo = margin(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if hi - lo <= tol:
                    break
                fmid = margin(mid)
                if (flo >= 0) == (fmid >= 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            threshold = 0.5 * (lo + hi)
            break
    return useful, threshold


# ---- properties ------------------------------------------------------------


@oracle_settings
@given(seed=seeds, n=qubits, n_ops=st.integers(1, 6), with_leftover=st.booleans(),
       noise=st.sampled_from((0.0, 1e-13, 1e-9, 1e-3)))
def test_stored_defect_equals_recomputed_defect(seed, n, n_ops, with_leftover, noise):
    rng = np.random.default_rng(seed)
    recovery = random_recovery(rng, n, n_ops, with_leftover)
    if noise:
        stack = recovery.stack.copy()
        stack[:n_ops] += noise * rng.normal(size=stack[:n_ops].shape)
        recovery = RecoveryOperation(n, recovery.labels, stack)
    rows = recovery.operators()
    if recovery.leftover is not None:
        rows.append(recovery.leftover)
    assert recovery.completeness_defect() == completeness_defect(rows)


@oracle_settings
@given(gamma=st.floats(0.0, 1.0, exclude_max=True))
def test_numeric_optimum_matches_per_step_closed_form(gamma):
    assert q.numeric_optimum(gamma) == loop_numeric_optimum(gamma)


@oracle_settings
@given(seed=seeds, n_ops=st.integers(1, 16), dim=st.sampled_from((2, 4, 8, 16)))
def test_completeness_defect_matches_operator_loop(seed, n_ops, dim):
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(2 * n_ops * dim)
    ops = [scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
           for _ in range(n_ops)]
    assert abs(completeness_defect(ops) - loop_completeness_defect(ops)) <= TOL
    daggered = [op.conj().T for op in ops]
    unital = np.max(np.abs(sum(op @ op.conj().T for op in ops) - np.eye(dim)))
    assert abs(completeness_defect(daggered) - unital) <= TOL


@oracle_settings
@given(seed=seeds, n_ops=st.integers(2, 16), dim=st.sampled_from((2, 4, 8, 16)))
def test_random_isometry_kraus_sets_are_trace_preserving(seed, n_ops, dim):
    w = random_isometry(np.random.default_rng(seed), n_ops * dim, dim)
    ops = [w[k * dim:(k + 1) * dim] for k in range(n_ops)]
    assert completeness_defect(ops) <= TOL
    labels = tuple("k%d" % k for k in range(n_ops))
    assert KrausChannel(dim.bit_length() - 1, labels, ops).completeness_defect() <= TOL
    leftover_last = labels[:-1] + ("O",)
    assert RecoveryOperation(dim.bit_length() - 1, leftover_last, ops).completeness_defect() <= TOL


unit_interval = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))


@oracle_settings
@given(p=unit_interval, seed=seeds)
def test_baseline_equals_per_operator_loop(p, seed):
    channels = (q.bitflip_single(p), q.phaseflip_single(p), q.ad_single(p),
                random_single_channel(np.random.default_rng(seed)))
    for channel in channels:
        assert q.baseline_no_qec(channel) == loop_baseline_no_qec(channel)


@oracle_settings
@given(seed=seeds, n=st.integers(2, 4))
def test_enlarge_matches_per_label_kron(seed, n):
    rng = np.random.default_rng(seed)
    channel = random_single_channel(rng)
    batched = q.enlarge(channel, n)
    hit = q.enlarge(channel, n)
    assert hit is batched
    for _ in range(_ENLARGE_CACHE_SIZE + 1):  # one more distinct channel than the cache holds
        q.enlarge(random_single_channel(rng), n)
    rebuilt = q.enlarge(channel, n)
    assert rebuilt is not batched
    expected = loop_enlarge(channel, n)
    for result in (batched, rebuilt):
        assert result.labels == tuple(label for label, _ in expected)
        for term, (label, op) in zip(result.kraus, expected):
            assert np.array_equal(term.op, op)


def float_bits(x):
    return np.float64(x).tobytes()  # tells -0.0 from 0.0


def test_baseline_equals_trace_form_bit_for_bit_at_the_corners():
    for p in (0.0, -0.0, 1.0, 0.5, 1e-300):
        for channel in (q.bitflip_single(p), q.phaseflip_single(p), q.ad_single(p)):
            assert float_bits(q.baseline_no_qec(channel)) == float_bits(
                trace_form_baseline_no_qec(channel))


@oracle_settings
@given(seed=seeds, n_ops=st.integers(1, 3))
def test_baseline_equals_trace_form_bit_for_bit(seed, n_ops):
    rng = np.random.default_rng(seed)
    labels = tuple("abc"[:n_ops])
    probs = rng.dirichlet(np.ones(n_ops))
    # Kraus operators cut from a random isometry, and probabilistic-unitary branches
    cut = KrausChannel(1, labels, random_isometry(rng, 2 * n_ops, 2).reshape(n_ops, 2, 2))
    unitary = KrausChannel(1, labels, [np.sqrt(w) * random_isometry(rng, 2, 2) for w in probs])
    for channel in (cut, unitary):
        assert float_bits(q.baseline_no_qec(channel)) == float_bits(
            trace_form_baseline_no_qec(channel))


def array_form_baseline_no_qec(channel):
    """``baseline_no_qec`` gating and weighting whole arrays in numpy, as it was before each
    2 x 2 gram and trace was read as Python numbers; it must agree bit for bit."""
    stack = channel.stack
    grams = stack.conj().transpose(0, 2, 1) @ stack
    probs = (grams[:, 0, 0] + grams[:, 1, 1]).real / channel.dim
    unitary = np.abs(grams - probs[:, None, None] * np.eye(2)).max(axis=(1, 2)) <= 1e-12
    weights = np.where(unitary, probs, 1.0).tolist()
    total = 0.0
    for weight, trace in zip(weights, (stack[:, 0, 0] + stack[:, 1, 1]).tolist()):
        total += weight * abs(trace) ** 2
    return 0.25 * total


PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def gate_edge_branch(rng, margin):
    """sqrt(p) U diag(sqrt(1 + e), sqrt(1 - e)): A^dag A - p I is diag(pe, -pe), pe = margin * 1e-12."""
    p = rng.uniform(0.05, 1.0)
    e = margin * 1e-12 / p
    return np.sqrt(p) * random_isometry(rng, 2, 2) @ np.diag([np.sqrt(1 + e), np.sqrt(1 - e)])


@oracle_settings
@given(seed=seeds, n_ops=st.integers(1, 4),
       bad=st.sampled_from((np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0, -np.inf),
                            1e200)))
def test_baseline_equals_array_form_bit_for_bit(seed, n_ops, bad):
    rng = np.random.default_rng(seed)
    labels = tuple("abcd"[:n_ops])
    probs = rng.dirichlet(np.ones(n_ops))
    phases = np.exp(2j * np.pi * rng.uniform(size=n_ops))
    paulis = [w ** 0.5 * z * PAULIS[i] for w, z, i in zip(probs, phases, rng.integers(4, size=n_ops))]
    # one branch each just inside and just outside the gate, the rest anywhere near it
    margins = [0.999, 1.001, *rng.choice((0.999, 1.001, 0.5, 2.0), size=n_ops)][:n_ops]
    edge = [gate_edge_branch(rng, m) for m in margins]
    cut = random_isometry(rng, 2 * n_ops, 2).reshape(n_ops, 2, 2)
    broken = cut.copy()
    broken[rng.integers(n_ops), rng.integers(2), rng.integers(2)] = bad
    for stack in (paulis, edge, cut):
        channel = KrausChannel(1, labels, stack)
        assert float_bits(q.baseline_no_qec(channel)) == float_bits(array_form_baseline_no_qec(channel))
    with pytest.raises(ValueError, match=WEIGHT_ERROR):  # neither form ever sees it
        KrausChannel(1, labels, broken)


def test_gate_edge_branches_straddle_the_unitary_gate():
    rng = np.random.default_rng(3)
    for margin, unitary in ((0.999, True), (1.001, False)):
        a = gate_edge_branch(rng, margin)
        gram = a.conj().T @ a
        assert gram[0, 0] != gram[1, 1]
        prob = np.trace(gram).real / 2
        assert (max_abs(gram - prob * np.eye(2)) <= q.fidelity.UNITARY_BRANCH_TOL) == unitary
        weight = prob if unitary else 1.0
        channel = KrausChannel(1, ("a",), [a])
        assert q.baseline_no_qec(channel) == 0.25 * weight * abs(np.trace(a)) ** 2


@oracle_settings
@given(seed=seeds, n=st.integers(1, 4), n_ops=st.integers(1, 16))
def test_channel_factors_equal_batched_product_bit_for_bit(seed, n, n_ops):
    rng = np.random.default_rng(seed)
    code, dim = random_code(rng, n), 2 ** n
    ops = rng.normal(size=(n_ops, dim, dim)) + 1j * rng.normal(size=(n_ops, dim, dim))
    labels = tuple("k%d" % k for k in range(n_ops))
    for channel in (KrausChannel(n, labels, ops), q.enlarge(random_single_channel(rng), n)):
        factors = _channel_factors(code, channel)
        batched = channel.stack @ code.isometry
        assert factors.shape == batched.shape and not factors.flags.writeable
        assert factors.tobytes() == batched.tobytes()


# finite reals with both signed zeros drawn often
signed_reals = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-2.0, 2.0))


@oracle_settings
@given(entries=st.lists(st.tuples(signed_reals, signed_reals), min_size=8, max_size=8),
       n=st.integers(2, 4))
def test_enlarge_rows_equal_kron_chains_bit_for_bit(entries, n):
    pair = np.array([complex(re, im) for re, im in entries]).reshape(2, 2, 2)
    channel = KrausChannel(1, ("0", "1"), pair)
    built = q.enlarge(channel, n)
    for label, row in zip(built.labels, built.stack):
        chain = reduce(np.kron, [channel.stack[int(c)] for c in label])
        assert row.tobytes() == chain.tobytes(), label


@oracle_settings
@given(seed=seeds, n=qubits, n_ops=st.integers(1, 6), with_leftover=st.booleans())
def test_fidelity_matches_term_loop(seed, n, n_ops, with_leftover):
    rng = np.random.default_rng(seed)
    code = random_code(rng, n)
    recovery = random_recovery(rng, n, n_ops, with_leftover)
    channel = q.enlarge(random_single_channel(rng), n)
    result = q.entanglement_fidelity(code, recovery, channel)
    expected = loop_terms(code, recovery, channel)
    assert [t.key for t in result.terms] == [key for key, _ in expected]
    for term, (_, tr) in zip(result.terms, expected):
        assert abs(term.trace - tr) <= TOL
        assert abs(term.contribution - 0.25 * abs(tr) ** 2) <= TOL
    assert abs(result.value - 0.25 * sum(abs(tr) ** 2 for _, tr in expected)) <= TOL
    assert -TOL <= result.value <= 1.0 + TOL
    for tol in (q.fidelity.NONVANISHING_TOL, 1e-2):  # the term list, read row by row, as reference
        assert q.nonvanishing_terms(result, tol) == [
            t.key for t in result.terms if t.key[0] != "O" and t.contribution > tol]


@oracle_settings
@given(seed=seeds, n=qubits, size=st.integers(1, 8))
def test_kl_gram_matches_vdot_blocks(seed, n, size):
    rng = np.random.default_rng(seed)
    code = random_code(rng, n)
    channel = q.enlarge(random_single_channel(rng), n)
    picks = rng.choice(len(channel.kraus), size=min(size, len(channel.kraus)), replace=False)
    errors = KrausChannel(n, [channel.labels[i] for i in picks], channel.stack[picks])
    gram = q.kl_gram(code, errors)
    blocks, eigs = loop_kl(code, errors)
    assert gram.labels == errors.labels
    assert gram.blocks.keys() == blocks.keys()
    for key, block in blocks.items():
        assert np.max(np.abs(gram.blocks[key] - block)) <= TOL
    assert gram.diag_eigs.keys() == eigs.keys()
    for label, values in eigs.items():
        assert np.max(np.abs(np.array(gram.diag_eigs[label]) - values)) <= TOL


SEARCH_RANGES = ((1e-4, 3e-4), (1e-3, 3e-3), (4e-3, 1e-2))  # perfbench's code-search gammas
search_gammas = st.tuples(*(st.floats(lo, hi) for lo, hi in SEARCH_RANGES))


@oracle_settings
@given(seed=seeds, n=qubits, n_ops=st.integers(1, 16), g=st.sampled_from((None, 1, 3)))
def test_images_equal_batched_product_bit_for_bit(seed, n, n_ops, g):
    rng = np.random.default_rng(seed)
    dim = 2**n
    shape = (n_ops, dim, dim) if g is None else (g, n_ops, dim, dim)
    ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    isometry = random_code(rng, n).isometry
    images, batched = _images(ops, isometry), ops @ isometry
    assert images.shape == batched.shape and images.tobytes() == batched.tobytes()


def loop_detection_probability(errors, state):
    """sum_k <psi|A_k^dag A_k|psi>, one ``op @ state`` image at a time."""
    total = 0.0
    for op in errors.stack:
        image = op @ state
        total += float(np.real(np.vdot(image, image)))
    return total


@oracle_settings
@given(seed=seeds, n=qubits, n_ops=st.integers(1, 16))
def test_state_images_equal_per_operator_products_bit_for_bit(seed, n, n_ops):
    rng = np.random.default_rng(seed)
    dim = 2**n
    ops = rng.normal(size=(n_ops, dim, dim)) + 1j * rng.normal(size=(n_ops, dim, dim))
    code = random_code(rng, n)
    state = code.isometry @ random_isometry(rng, 2, 1)[:, 0]
    for image, op in zip(_images(ops, state[:, None])[..., 0], ops):
        assert image.tobytes() == (op @ state).tobytes()
    errors = KrausChannel(n, tuple("e%d" % k for k in range(n_ops)), ops)
    assert float_bits(q.detection_probability(code, errors, state)) == float_bits(
        loop_detection_probability(errors, state))


noise_samples = st.lists(st.floats(0.0, 1e-2, exclude_min=True),
                         min_size=2, max_size=5, unique=True)
fit_values = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-10))


@oracle_settings
@given(data=st.data(), gammas=noise_samples, columns=st.sampled_from((None, 1, 4, 15)))
def test_fit_slope_equals_polyfit_bit_for_bit(data, gammas, columns):
    shape = (len(gammas),) if columns is None else (len(gammas), columns)
    size = int(np.prod(shape))
    values = np.array(data.draw(st.lists(fit_values, min_size=size, max_size=size))).reshape(shape)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = np.polyfit(np.log(gammas), np.log(np.maximum(values, 1e-300)), 1)[0]
    if caught:  # polyfit warns that the samples cannot fix a slope; the kernel raises
        assert [w.category.__name__ for w in caught] == ["RankWarning"]
        with pytest.raises(ValueError, match="too close to fix a log-log slope"):
            _fit_slope(tuple(gammas), values)
        return
    slope = _fit_slope(tuple(gammas), values)
    assert np.shape(slope) == np.shape(expected)
    assert np.asarray(slope).tobytes() == np.asarray(expected).tobytes()


def direct_gram_blocks(images):
    """Blocks (A_l V)^dag (A_m V) contracted over the middle axis of the (G, L, d, 2) images."""
    return np.einsum("glai,gmaj->glmij", images.conj(), images)


@oracle_settings
@given(seed=seeds, g=st.integers(1, 3), size=st.integers(1, 16), dim=st.sampled_from((2, 4, 8, 16)))
def test_gram_blocks_equal_direct_contraction_on_random_complex_images(seed, g, size, dim):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(g, size, dim, 2)) + 1j * rng.normal(size=(g, size, dim, 2))
    assert np.array_equal(_gram_blocks(images), direct_gram_blocks(images))


def test_gram_blocks_equal_direct_contraction_at_the_search_corners():
    for gammas in product(*SEARCH_RANGES):
        ops = np.stack([q.weight_le1_ad_errors(g).stack for g in gammas])
        for pair in q.enumerate_pairs():
            images = ops @ pair.as_code().isometry
            assert np.array_equal(_gram_blocks(images), direct_gram_blocks(images)), gammas


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_search_orders_equal_each_shared_pairs_own_fit_bit_for_bit(cold):
    # A search fits all 28 pairs' violation columns side by side, each read from its blocks at
    # state columns i - 1, j - 1 of one Gram; a pair alone forms its own Gram and fits it alone.
    for gammas in [TRIPLE] + SHARING + list(product(*SEARCH_RANGES)) + [q.conditions.DEFAULT_GAMMAS]:
        enlarged = [q.enlarge(q.ad_single(g), 4) for g in gammas]
        rows = np.stack([q.weight_le1_ad_errors(g).stack for g in gammas])
        q.conditions._search_orders.cache_clear()
        for pair in q.enumerate_pairs():
            if cold:
                q.conditions._search_orders.cache_clear()
            else:
                q.classify_pair(pair, gammas)
            misses = q.conditions._search_orders.cache_info().misses
            slopes, vanishing = q.conditions._search_orders(gammas, *enlarged)[pair]
            assert q.conditions._search_orders.cache_info().misses == misses + cold
            columns = _sweep_columns(_pair_violations(_gram_blocks(_images(rows, pair.isometry))))
            expected = _scaling_orders(gammas, columns)
            assert slopes.tobytes() == expected[0].tobytes(), (gammas, pair.index_pair)
            assert vanishing.tobytes() == expected[1].tobytes(), (gammas, pair.index_pair)


@oracle_settings
@given(gamma=st.floats(0.0, 0.9))
def test_standard_recovery_terms_end_in_leftover_row(gamma):
    result = q.entanglement_fidelity(
        q.leung4(), q.standard_ad_recovery(gamma), q.enlarge(q.ad_single(gamma), 4)
    )
    assert len(result.terms) == 6 * 16
    assert [t.key for t in result.terms[-16:]] == [("O", l) for l in range(16)]
    assert [t.key for t in result.terms[:16]] == [(0, l) for l in range(16)]
    expected = loop_terms(
        q.leung4(), q.standard_ad_recovery(gamma), q.enlarge(q.ad_single(gamma), 4)
    )
    assert max(abs(t.trace - tr) for t, (_, tr) in zip(result.terms, expected)) <= TOL


@oracle_settings
@given(gammas=search_gammas)
def test_classify_pair_matches_per_pair_fits(gammas):
    for pair in q.enumerate_pairs():
        got = q.classify_pair(pair, gammas)
        good, witness, slope = loop_classify(pair, gammas)
        assert (got.good, got.witness) == (good, witness), pair.index_pair
        assert (got.slope is None) == (slope is None)
        if slope is not None:
            assert abs(got.slope - slope) <= TOL


# Each per-qubit damping factor A_a^dag A_b as integer coefficients of 1, s, s**2 in
# s = sqrt(gamma): diag(1, 1 - s**2), s|0><1|, s|1><0| and s**2|1><1|; sqrt(1 - gamma) never enters.
DAMPING_FACTOR_POLYS = {
    (0, 0): np.array([[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, -1]]]),
    (0, 1): np.array([[[0, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 0]]]),
    (1, 0): np.array([[[0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0]]]),
    (1, 1): np.array([[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1]]]),
}


def poly_kron(x, y):
    """Kronecker product of two matrices of integer polynomials, (rows, cols, coefficients)."""
    out = np.zeros((x.shape[0] * y.shape[0], x.shape[1] * y.shape[1], x.shape[2] + y.shape[2] - 1),
                   dtype=np.int64)
    for i, j in product(range(x.shape[2]), range(y.shape[2])):
        out[..., i + j] += np.kron(x[..., i], y[..., j])
    return out


def weight_le1_damping_grams():
    """Each label pair l <= m of the weight <= 1 errors, row-major, with A_l^dag A_m in s."""
    return [((l, m), reduce(poly_kron, (DAMPING_FACTOR_POLYS[int(a), int(b)] for a, b in zip(l, m))))
            for l, m in combinations_with_replacement(q.conditions.WEIGHT_LE1_LABELS, 2)]


def exact_classify(pair, grams):
    """(good, witness, overall order in gamma) from the pair's KL blocks under ``grams`` as integer
    polynomials in s; a violation's lowest nonzero power of s is twice its exact order in gamma."""
    codewords = np.zeros((16, 2), dtype=np.int64)  # unnormalized |x> + |complement of x>
    for column, index in enumerate(pair.index_pair):
        x = int(q.codes.SELF_COMPLEMENTARY_STRINGS[index - 1], 2)
        codewords[[x, x ^ 15], column] = 1
    powers = []
    for labels, gram in grams:
        block = np.einsum("ri,rck,cj->ijk", codewords, gram, codewords)
        violation = np.array([block[0, 1], block[1, 0], block[0, 0] - block[1, 1]])
        nonzero = np.flatnonzero(violation.any(axis=0))
        powers.append((int(nonzero[0]) if nonzero.size else None, labels))
    failing = [pair_labels for power, pair_labels in powers if power is not None and power < 4]
    present = [power for power, _ in powers if power is not None]
    return not failing, failing[-1] if failing else None, min(present) / 2 if present else None


def test_classify_pair_matches_exact_integer_orders():
    grams, orders = weight_le1_damping_grams(), set()
    for pair in q.enumerate_pairs():
        got = q.classify_pair(pair)
        good, witness, order = exact_classify(pair, grams)
        assert (got.good, got.witness) == (good, witness), pair.index_pair
        assert order is not None and abs(got.slope - order) <= 0.01, pair.index_pair
        orders.add(order)
    assert orders == {0.5, 1.0, 2.0}


@oracle_settings
@given(seed=seeds, n=qubits, size=st.integers(1, 8))
def test_exact_correctable_matches_strict_scan(seed, n, size):
    rng = np.random.default_rng(seed)
    code = random_code(rng, n)
    channel = q.enlarge(random_single_channel(rng), n)
    picks = rng.choice(len(channel.kraus), size=min(size, len(channel.kraus)), replace=False)
    errors = KrausChannel(n, [channel.labels[i] for i in picks], channel.stack[picks])
    verdict = q.exact_correctable(code, errors)
    worst, witness = loop_exact_correctable(code, errors)
    assert abs(verdict.violation - worst) <= TOL
    assert verdict.witness_pair == witness


@oracle_settings
@given(seed=seeds, n=qubits, related=st.booleans())
def test_permutation_equivalent_matches_dense_matrices(seed, n, related):
    rng = np.random.default_rng(seed)
    c1 = random_code(rng, n)
    if related:
        m = permute_qubits_matrix(tuple(rng.permutation(n)), n)
        c2 = q.QuantumCode(n, m @ c1.zero_logical, m @ c1.one_logical)
    else:
        c2 = random_code(rng, n)
    expected = loop_permutation_equivalent(c1, c2)
    assert q.permutation_equivalent(c1, c2) == expected
    assert (expected is not None) == related


@oracle_settings
@given(gamma=st.floats(0.0, 1.0, exclude_max=True), seed=seeds)
def test_damping_family_matches_hand_written_recoveries(gamma, seed):
    v = np.random.default_rng(seed).normal(size=4)
    v /= np.linalg.norm(v)
    a, b = complex(v[0], v[1]), complex(v[2], v[3])
    ops, leftover = ref_standard_recovery(gamma)
    cases = [
        (q.standard_ad_recovery(gamma), ops, leftover),
        (q.cp_recovery(), ref_cp_recovery(), None),
        (q.fletcher_recovery(a, b), ref_fletcher_recovery(a, b), None),
    ]
    for recovery, expected_ops, expected_leftover in cases:
        assert len(recovery.operators()) == len(expected_ops)
        for op, expected in zip(recovery.operators(), expected_ops):
            assert np.array_equal(op, expected)
        if expected_leftover is None:
            assert recovery.leftover is None
        else:
            assert np.array_equal(recovery.leftover, expected_leftover)


def random_curve(rng):
    """A cubic through (0, 1) with random slope and curvature."""
    coeffs = (1.0, *rng.normal(0.0, 2.0, size=3))
    return lambda p: float(np.polynomial.polynomial.polyval(p, coeffs))


@oracle_settings
@given(seed=seeds, points=st.integers(2, 40), near=st.booleans())
def test_threshold_analysis_matches_reevaluating_scan(seed, points, near):
    rng = np.random.default_rng(seed)
    grid = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 1.0, points - 1)]))
    fidelity_curve = random_curve(rng)
    # near: the baseline sits within the 1e-12 comparison slack of the curve
    baseline_curve = (lambda p: fidelity_curve(p) + 5e-13) if near else random_curve(rng)
    report = q.threshold_analysis(fidelity_curve, baseline_curve, grid=grid)
    useful, threshold = loop_threshold(fidelity_curve, baseline_curve, grid)
    assert report == q.ThresholdReport(useful, threshold)


def test_threshold_analysis_evaluates_each_grid_point_once():
    calls = {"coded": 0, "baseline": 0}

    def coded(p):  # repetition code under bit flip: threshold 1/2
        calls["coded"] += 1
        return 1.0 - 3.0 * p**2 + 2.0 * p**3

    def baseline(p):
        calls["baseline"] += 1
        return (1.0 - p) ** 2

    grid = np.linspace(0.0, 1.0, 16)
    tol = THRESHOLD_TOL
    report = q.threshold_analysis(coded, baseline, grid=grid)
    assert abs(report.failure_threshold - 0.5) <= tol
    bisection_steps = int(np.ceil(np.log2((grid[1] - grid[0]) / tol)))
    assert calls["coded"] <= len(grid) + bisection_steps
    assert calls["baseline"] == len(grid)


# ---- bit-for-bit oracles of the construction forms the builders replaced ----


def eye_form_completeness_defect(ops):
    """``completeness_defect`` subtracting a built ``np.eye``, as it was written first."""
    stack = np.asarray(ops, dtype=complex)
    gram = (stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0)
    return max_abs(gram - np.eye(stack.shape[-1]))


@oracle_settings
@given(data=st.data(), n_ops=st.integers(1, 4), dim=st.sampled_from((2, 4, 8)),
       daggered=st.booleans())
def test_completeness_defect_equals_eye_form_bit_for_bit(data, n_ops, dim, daggered):
    size = n_ops * dim * dim
    entries = data.draw(st.lists(st.tuples(signed_reals, signed_reals), min_size=size,
                                 max_size=size))
    stack = np.array([complex(re, im) for re, im in entries]).reshape(n_ops, dim, dim)
    if daggered:  # the unitality form certify passes: a strided view
        stack = stack.conj().transpose(0, 2, 1)
    assert float_bits(completeness_defect(stack)) == float_bits(eye_form_completeness_defect(stack))


def test_nan_stack_still_fails_the_completeness_gate():
    stack = np.array([np.eye(4, dtype=complex)])
    stack[0, 1, 2] = np.nan
    assert np.isnan(completeness_defect(stack))
    assert not completeness_defect(stack) <= q.fidelity.TRACE_PRESERVING_TOL
    # as a channel it never reaches the gate, or certify: construction refuses it
    with pytest.raises(ValueError, match=WEIGHT_ERROR):
        KrausChannel(2, ("a",), stack)


def list_form_damping_stack(a, b, keep_tail):
    """The damping family's stack converted from a list of operators, every projector by
    ``np.outer``, as the builder formed it before its fixed rows were templated."""
    zero, one = q.leung4().codewords
    k0, k1 = ket("0000"), ket("1111")
    odd = (ket("0011") - ket("1100")) / np.sqrt(2)
    syndromes = [np.outer(zero, ket(s0).conj()) + np.outer(one, ket(s1).conj())
                 for s0, s1 in (("0111", "0100"), ("1011", "1000"), ("1101", "0001"),
                                ("1110", "0010"))]
    tail_rows = [ket(s) for s in ("1001", "1010", "0101", "0110")]
    first = np.outer(zero, a * k0 + b * k1) + np.outer(one, one.conj())
    second_row = b.conjugate() * k0 - a.conjugate() * k1
    if not keep_tail:
        leftover = (sum(np.outer(row.conj(), row) for row in tail_rows)
                    + np.outer(second_row.conj(), second_row) + np.outer(odd.conj(), odd))
        return np.array([first, *syndromes, leftover], dtype=complex)
    second = np.outer(zero, second_row) + np.outer(one, odd)
    return np.array([first, second, *syndromes, *(np.outer(zero, row) for row in tail_rows)],
                    dtype=complex)


DAMPING_CORNERS = (0.0, -0.0, 1e-300, *np.linspace(0.0, 0.999, 37).tolist(),
                   *np.logspace(-4, -2, 9).tolist(), 0.999)


def test_damping_stacks_equal_list_form_bit_for_bit():
    half = complex(1 / np.sqrt(2))
    assert q.cp_recovery().stack.tobytes() == list_form_damping_stack(half, half, True).tobytes()
    for gamma in DAMPING_CORNERS:
        c2 = (1.0 - gamma) ** 2
        a, b = np.array([1.0, c2], dtype=complex) / np.linalg.norm(ket("0000") + c2 * ket("1111"))
        expected = list_form_damping_stack(a, b, False)
        assert q.standard_ad_recovery(gamma).stack.tobytes() == expected.tobytes(), gamma
        opt = q.closed_form_optimum(gamma)
        expected = list_form_damping_stack(complex(opt.a_bar), complex(opt.b_bar), True)
        assert q.fletcher_recovery(opt.a_bar, opt.b_bar).stack.tobytes() == expected.tobytes()
    rng = np.random.default_rng(5)
    for _ in range(20):  # complex parameters with signs in every part
        v = rng.normal(size=4)
        a, b = complex(*v[:2] / np.linalg.norm(v)), complex(*v[2:] / np.linalg.norm(v))
        assert q.fletcher_recovery(a, b).stack.tobytes() == list_form_damping_stack(
            a, b, True).tobytes()


def norm_form_standard_parameters(gamma):
    """The standard member's (a, b) as numpy formed them: (1, c2) / norm(|0000> + c2 |1111>)."""
    c2 = (1.0 - gamma) ** 2
    return (np.array([1.0, c2], dtype=complex) / np.linalg.norm(ket("0000") + c2 * ket("1111"))).tolist()


@oracle_settings
@given(gamma=st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 0.999999)),
                       st.floats(0.0, 1.0, exclude_max=True)))
def test_standard_parameters_equal_norm_form_bit_for_bit(gamma):
    expected = list_form_damping_stack(*norm_form_standard_parameters(gamma), False)
    assert q.standard_ad_recovery(gamma).stack.tobytes() == expected.tobytes()


def list_form_single_stacks(p):
    """``ad_single`` from its nested list, the flip channels scaled by one ``np.sqrt`` call."""
    ad = np.array([[[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], [[0.0, np.sqrt(p)], [0.0, 0.0]]],
                  dtype=complex)
    flips = [np.sqrt([1 - p, p])[:, None, None] * np.array(pair)
             for pair in ((q.linalg.PAULI_I, q.linalg.PAULI_X), (q.linalg.PAULI_I, q.linalg.PAULI_Z))]
    return ad, *flips


@oracle_settings
@given(p=st.one_of(st.sampled_from((0.0, -0.0, 1.0, 1e-300, 5e-324, 0.5)), st.floats(0.0, 1.0)))
def test_single_qubit_stacks_equal_list_form_bit_for_bit(p):
    built = (q.ad_single(p), q.bitflip_single(p), q.phaseflip_single(p))
    for channel, expected in zip(built, list_form_single_stacks(p)):
        assert channel.stack.tobytes() == expected.tobytes()
