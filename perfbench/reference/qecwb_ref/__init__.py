"""Desk-scale workbench for exact and approximate quantum error correction.

Builds Kraus noise channels (bit flip, phase flip, amplitude damping) and
their enlarged n-qubit error sets, houses the three-qubit repetition code
and the good four-qubit self-complementary codes, constructs recovery
operations (projective, damping-adapted, code-projected, channel-adapted),
and evaluates everything through the entanglement fidelity.
"""

from .channels import (
    ChannelCertificate,
    KrausChannel,
    KrausTerm,
    ad_single,
    apply_channel,
    bitflip_single,
    certify,
    enlarge,
    hadamard_conjugate,
    phaseflip_single,
    truncate,
)
from .codes import (
    QuantumCode,
    SelfComplementaryPair,
    enumerate_pairs,
    grassl4,
    leung4,
    permutation_equivalent,
    permute_qubits_matrix,
    repetition3,
    self_complementary_basis,
    third4,
)
from .conditions import (
    CorrectabilityVerdict,
    DetectabilityReport,
    KLGram,
    PairClassification,
    ViolationOrder,
    classify_pair,
    detectability,
    detectable_to_first_order,
    detection_probability,
    exact_correctable,
    kl_gram,
    violation_order,
    weight_le1_ad_errors,
)
from .fidelity import (
    FidelityResult,
    SeriesEstimate,
    ThresholdReport,
    baseline_no_qec,
    entanglement_fidelity,
    nonvanishing_terms,
    second_order_coeff,
    threshold_analysis,
)
from .fletcher import (
    FletcherParams,
    Optimum,
    base_fidelity,
    closed_form_optimum,
    fletcher_fidelity_closed,
    numeric_optimum,
    radius_sweep,
)
from .recovery import (
    PolarDecomposition,
    RecoveryOperation,
    ResidueResult,
    cp_recovery,
    damped_plus_state,
    fletcher_recovery,
    polar_decompose,
    repetition_recovery,
    residue,
    standard_ad_recovery,
)

__version__ = "0.1.0"
