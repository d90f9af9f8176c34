"""The stacked-array kernel against the per-term loops it replaced.

The loop forms here are the plain definitions: one ``np.kron`` per label in
``enlarge``, a double loop over (k, l) codespace-restricted traces in
``entanglement_fidelity``, and ``np.vdot`` blocks in ``kl_gram``.  Random
single-qubit channels are cut from random 4 x 2 isometries, random
recoveries from random (K d) x d isometries on three and four qubits.
"""

from functools import reduce
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qecwb as q
from qecwb.channels import KrausChannel, KrausTerm
from qecwb.recovery import RecoveryOperation

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
    return KrausChannel(1, 0.0, (KrausTerm("0", 0, v[:2]), KrausTerm("1", 1, v[2:])))


def random_code(rng, n):
    v = random_isometry(rng, 2**n, 2)
    return q.QuantumCode(n, v[:, 0], v[:, 1])


def random_recovery(rng, n, n_ops, with_leftover):
    dim = 2**n
    blocks = n_ops + int(with_leftover)
    w = random_isometry(rng, blocks * dim, dim)
    ops = [w[i * dim:(i + 1) * dim] for i in range(blocks)]
    leftover = ops.pop() if with_leftover else None
    labeled = tuple(("r%d" % i, op) for i, op in enumerate(ops))
    return RecoveryOperation("random", labeled, leftover=leftover)


# ---- the loop forms --------------------------------------------------------


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
        for l, a in enumerate(channel.operators()):
            op = r @ a
            terms.append(((k, l), zero.conj() @ op @ zero + one.conj() @ op @ one))
    return terms


def loop_kl(code, errors):
    zero, one = code.codewords
    images = {label: (op @ zero, op @ one) for label, op in errors}
    blocks, eigs = {}, {}
    max_off = max_mismatch = 0.0
    for l, li in images.items():
        for m, mi in images.items():
            block = np.array([[np.vdot(li[i], mi[j]) for j in range(2)] for i in range(2)])
            blocks[(l, m)] = block
            max_off = max(max_off, abs(block[0, 1]), abs(block[1, 0]))
            max_mismatch = max(max_mismatch, abs(block[0, 0] - block[1, 1]))
            if l == m:
                eigs[l] = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
    return blocks, eigs, max_off, max_mismatch


# ---- properties ------------------------------------------------------------


@oracle_settings
@given(seed=seeds, n=st.integers(2, 4))
def test_enlarge_matches_per_label_kron(seed, n):
    channel = random_single_channel(np.random.default_rng(seed))
    batched = q.enlarge(channel, n)
    expected = loop_enlarge(channel, n)
    assert batched.labels() == [label for label, _ in expected]
    for term, (label, op) in zip(batched.kraus, expected):
        assert term.weight == label.count("1")
        assert np.max(np.abs(term.op - op)) <= 1e-15


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


@oracle_settings
@given(seed=seeds, n=qubits, size=st.integers(1, 8))
def test_kl_gram_matches_vdot_blocks(seed, n, size):
    rng = np.random.default_rng(seed)
    code = random_code(rng, n)
    channel = q.enlarge(random_single_channel(rng), n)
    picks = rng.choice(len(channel.kraus), size=min(size, len(channel.kraus)), replace=False)
    errors = [(channel.kraus[i].label, channel.kraus[i].op) for i in picks]
    gram = q.kl_gram(code, errors)
    blocks, eigs, max_off, max_mismatch = loop_kl(code, errors)
    assert gram.labels == tuple(label for label, _ in errors)
    assert gram.blocks.keys() == blocks.keys()
    for key, block in blocks.items():
        assert np.max(np.abs(gram.block(*key) - block)) <= TOL
    assert gram.diag_eigs.keys() == eigs.keys()
    for label, values in eigs.items():
        assert np.max(np.abs(np.array(gram.diag_eigs[label]) - values)) <= TOL
    assert abs(gram.max_offdiag_violation - max_off) <= TOL
    assert abs(gram.max_diag_mismatch - max_mismatch) <= TOL


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
