"""The 19 records: frozen fields, value equality of the tuples, and the ``Name(field=value, ...)`` repr.

Value records are tuples and compare by value.  Array holders compare by
identity, because the fidelity caches key on them; ``test_codes.py`` checks
that.  The repr strings were recorded from the dataclass definitions these
classes replace.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import qecwb as q
from qecwb.linalg import ket


def _bitflip_fidelity():
    return q.entanglement_fidelity(q.repetition3(), q.repetition_recovery(),
                                   q.enlarge(q.bitflip_single(0.1), 3))


def _threshold():
    # the repetition code's closed form against the bare qubit
    return q.threshold_analysis(lambda p: 1 - 3 * p**2 + 2 * p**3, lambda p: 1 - p,
                                np.linspace(0.0, 1.0, 11))


ARRAY_HOLDERS = {
    "KrausTerm": lambda: q.ad_single(0.1).kraus[0],
    "KrausChannel": lambda: q.bitflip_single(0.1),
    "RecoveryOperation": lambda: q.standard_ad_recovery(0.1),
    "QuantumCode": lambda: q.QuantumCode(3, ket("000"), ket("111")),
    "SelfComplementaryPair": lambda: q.SelfComplementaryPair(4, *q.leung4().codewords,
                                                              index_pair=(1, 6)),
    "KLGram": lambda: q.kl_gram(q.leung4(), q.weight_le1_ad_errors(0.1)),
    "FidelityResult": _bitflip_fidelity,
    "PolarDecomposition": lambda: q.polar_decompose(np.eye(4), np.eye(4)),
    "ResidueResult": lambda: q.residue(np.eye(4), np.eye(4), 1.0, 1.0),
}

VALUE_RECORDS = {
    "ChannelCertificate": lambda: q.certify(q.ad_single(0.1)),
    "DetectabilityReport": lambda: q.detectability(q.leung4(), np.eye(16)),
    "CorrectabilityVerdict": lambda: q.exact_correctable(q.leung4(), q.weight_le1_ad_errors(0.1)),
    "ViolationOrder": lambda: q.violation_order(lambda g: (q.leung4(), q.weight_le1_ad_errors(g))),
    "PairClassification": lambda: q.classify_pair(q.enumerate_pairs()[5]),
    "TermContribution": lambda: _bitflip_fidelity().terms[0],
    "SeriesEstimate": lambda: q.second_order_coeff(lambda g: 1 - g * g, [1e-4, 1e-3, 5e-3, 1e-2]),
    "ThresholdReport": _threshold,
    "Optimum": lambda: q.closed_form_optimum(0.1),
    "FletcherParams": lambda: q.FletcherParams.from_complex(0.6, 0.8j),
}

RECORDS = {**ARRAY_HOLDERS, **VALUE_RECORDS}


def test_the_tables_name_each_record_once():
    assert len(RECORDS) == 19
    for name, make in RECORDS.items():
        assert type(make()).__name__ == name


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_fields_cannot_be_assigned_or_deleted(make):
    record = make()
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("make", VALUE_RECORDS.values(), ids=VALUE_RECORDS)
def test_value_records_are_hashable_tuples_compared_by_value(make):
    first, second = make(), make()
    assert first == second and hash(first) == hash(second) and len({first, second}) == 1
    assert first == tuple(first) and tuple(first) == tuple(getattr(first, f) for f in first._fields)


def test_cached_properties_survive_the_frozen_fields():
    channel, result = q.bitflip_single(0.1), _bitflip_fidelity()
    assert channel.kraus is channel.kraus and result.terms is result.terms
    assert channel.completeness_defect() == vars(channel)["_defect"]
    with pytest.raises(AttributeError):
        del channel.kraus


def test_fletcher_params_checks_the_radius_on_every_construction():
    with pytest.raises(ValueError, match="radius"):
        q.FletcherParams(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="radius"):
        q.FletcherParams(a_re=1.0, a_im=0.0, b_re=1.0, b_im=0.0)
    params = q.FletcherParams(b_im=0.8, b_re=0.0, a_im=0.0, a_re=0.6)
    assert params == (0.6, 0.0, 0.0, 0.8)
    with pytest.raises(ValueError, match="radius"):
        params._replace(a_re=1.0)
    with pytest.raises(ValueError, match="radius"):
        q.FletcherParams._make((1.0, 0.0, 1.0, 0.0))


def test_pair_index_is_keyword_only():
    with pytest.raises(TypeError):
        q.SelfComplementaryPair(4, *q.leung4().codewords, (1, 6))


@pytest.mark.parametrize("name", ["KrausTerm", "KLGram", "FidelityResult", "PolarDecomposition",
                                  "ResidueResult"])
def test_result_holders_bind_one_value_per_field_through_the_base(name):
    record = ARRAY_HOLDERS[name]()
    cls, values = type(record), [getattr(record, field) for field in record._fields]
    assert "__init__" not in vars(cls)
    rebuilt = cls(*values)
    assert all(getattr(rebuilt, field) is value for field, value in zip(cls._fields, values))
    for wrong in (values[:-1], values + [None]):
        with pytest.raises(TypeError, match="%s takes %d fields" % (name, len(values))):
            cls(*wrong)


REPRS = [
    (lambda: q.bitflip_single(0.5),
     "KrausChannel(n_qubits=1, labels=('0', '1'), stack=array([[[0.70710678+0.j, 0.        +0.j],\n"
     "        [0.        +0.j, 0.70710678+0.j]],\n\n"
     "       [[0.        +0.j, 0.70710678+0.j],\n"
     "        [0.70710678+0.j, 0.        +0.j]]]))"),
    (q.repetition3,
     "QuantumCode(n_qubits=3, zero_logical=array([1.+0.j, 0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j, "
     "0.+0.j, 0.+0.j]), one_logical=array([0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j, 0.+0.j, "
     "1.+0.j]))"),
    (lambda: q.enumerate_pairs()[5],
     "SelfComplementaryPair(n_qubits=4, zero_logical=array([0.70710678+0.j, 0.        +0.j, "
     "0.        +0.j, 0.        +0.j,\n"
     "       0.        +0.j, 0.        +0.j, 0.        +0.j, 0.        +0.j,\n"
     "       0.        +0.j, 0.        +0.j, 0.        +0.j, 0.        +0.j,\n"
     "       0.        +0.j, 0.        +0.j, 0.        +0.j, 0.70710678+0.j]), "
     "one_logical=array([0.        +0.j, 0.        +0.j, 0.        +0.j, 0.        +0.j,\n"
     "       0.        +0.j, 0.70710678+0.j, 0.        +0.j, 0.        +0.j,\n"
     "       0.        +0.j, 0.        +0.j, 0.70710678+0.j, 0.        +0.j,\n"
     "       0.        +0.j, 0.        +0.j, 0.        +0.j, 0.        +0.j]), index_pair=(1, 7))"),
    (lambda: q.closed_form_optimum(0.1),
     "Optimum(a_bar=0.7770638784808231, b_bar=0.6294217415694667, f_star=0.9855126371760203)"),
    (_threshold,
     "ThresholdReport(coding_useful_range=(0.0, 0.5), failure_threshold=0.5000000000465661)"),
    (VALUE_RECORDS["FletcherParams"], "FletcherParams(a_re=0.6, a_im=0.0, b_re=0.0, b_im=0.8)"),
    (VALUE_RECORDS["ChannelCertificate"], "ChannelCertificate(trace_preserving=True, unital=False)"),
]


@pytest.mark.parametrize("make, text", REPRS,
                         ids=["channel", "code", "pair", "optimum", "threshold", "params", "certificate"])
def test_repr_lists_the_fields_by_name(make, text):
    assert repr(make()) == text


def test_pair_classification_repr():
    # the slope comes from a least-squares fit, whose last bits may vary with the BLAS
    result = q.classify_pair(q.enumerate_pairs()[5])
    expected = "PairClassification(index_pair=(1, 7), good=True, witness=None, slope=%r)"
    assert repr(result) == expected % result.slope and abs(result.slope - 1.9978447961896455) < 1e-9


def test_cli_import_loads_no_dataclasses():
    # the records generate no code at import, so nothing pulls in dataclasses
    code = ("import argparse, json, sys, numpy; before = set(sys.modules); import qecwb.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(q.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = done.stdout.split()
    assert "qecwb.cli" in loaded and "dataclasses" not in loaded
