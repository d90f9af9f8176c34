"""The unitary freedom of Kraus decompositions, as properties of the kernels.

Two Kraus stacks {A_l} and {sum_m u_lm A_m}, u unitary, describe the same
channel.  The entanglement fidelity is a property of the channel and of the
recovery, not of the stacks that write them down, and the Knill-Laflamme
conditions hold for an error set exactly when they hold for any unitary
mixture of it.  No hand-written oracle shares these facts with the kernels'
conventions (label order, conjugation, the leftover row), so they check
those conventions independently.  Unitaries are the Q factors of complex
Gaussian matrices.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qecwb as q
from qecwb.conditions import weight_le1_ad_errors
from qecwb.recovery import RecoveryOperation

TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
mixing_settings = settings(max_examples=25, deadline=None)


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(m)[0]


def mixed_stack(rng, stack):
    """The rows sum_m u_lm A_m of a (L, d, d) stack, for a random L x L unitary u."""
    return np.einsum("lm,mij->lij", random_unitary(rng, len(stack)), stack)


def mixed_channel(rng, channel):
    return q.KrausChannel(channel.n_qubits, channel.labels, mixed_stack(rng, channel.stack))


def mixed_recovery(rng, recovery):
    """A recovery of the mixed rows, the leftover included: a mixture has no leftover row."""
    labels = tuple("r%d" % k for k in range(len(recovery.stack)))
    return RecoveryOperation(recovery.n_qubits, labels, mixed_stack(rng, recovery.stack))


def damping_cases(gamma):
    opt = q.closed_form_optimum(gamma)
    channel = q.enlarge(q.ad_single(gamma), 4)
    recoveries = (q.standard_ad_recovery(gamma), q.cp_recovery(),
                  q.fletcher_recovery(opt.a_bar, opt.b_bar))
    return [(q.leung4(), recovery, channel) for recovery in recoveries]


def repetition_case(p):
    return q.repetition3(), q.repetition_recovery(), q.enlarge(q.bitflip_single(p), 3)


@mixing_settings
@given(gamma=st.floats(0.0, 0.9), p=st.floats(0.0, 1.0), seed=seeds)
def test_fidelity_is_unchanged_by_mixing_the_channel_or_the_recovery(gamma, p, seed):
    rng = np.random.default_rng(seed)
    for code, recovery, channel in damping_cases(gamma) + [repetition_case(p)]:
        f = q.entanglement_fidelity(code, recovery, channel).value
        f_channel = q.entanglement_fidelity(code, recovery, mixed_channel(rng, channel)).value
        f_recovery = q.entanglement_fidelity(code, mixed_recovery(rng, recovery), channel).value
        assert abs(f_channel - f) <= TOL
        assert abs(f_recovery - f) <= TOL


@mixing_settings
@given(gamma=st.floats(1e-2, 0.9), p=st.floats(0.0, 1.0), seed=seeds)
def test_exact_correctability_is_unchanged_by_mixing_the_error_set(gamma, p, seed):
    rng = np.random.default_rng(seed)
    damping = weight_le1_ad_errors(gamma)
    flips = q.enlarge(q.bitflip_single(p), 3)  # labels by weight: 000, then the weight-1 ones
    bitflips = q.KrausChannel(3, flips.labels[:4], flips.stack[:4])
    for code, errors, exact in ((q.leung4(), damping, False), (q.repetition3(), bitflips, True)):
        assert q.exact_correctable(code, errors).exact == exact
        assert q.exact_correctable(code, mixed_channel(rng, errors)).exact == exact
