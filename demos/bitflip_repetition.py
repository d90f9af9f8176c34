"""Exact error correction: the three-qubit repetition code under bit flips.

Walks through the whole exact-QEC pipeline: build the channel, enlarge it to
three qubits, check which error sets are correctable, construct the
projective recovery, and sweep the entanglement fidelity against the
uncoded baseline.
"""

import numpy as np

import qecwb as q


def main():
    p = 0.1
    channel = q.enlarge(q.bitflip_single(p), 3)
    print("three uses of the bit-flip channel at p = %.2f" % p)
    print("  %d enlarged operators: %s" % (len(channel.kraus), " ".join(channel.labels)))
    cert = q.certify(channel)
    print("  trace preserving: %s, unital: %s" % (cert.trace_preserving, cert.unital))

    code = q.repetition3()
    verdict = q.exact_correctable(code, q.KrausChannel(3, channel.labels[:4], channel.stack[:4]))
    print("\nweight <= 1 errors are exactly correctable: %s (violation %.1e)"
          % (verdict.exact, verdict.violation))
    verdict = q.exact_correctable(code, q.KrausChannel(3, channel.labels[:5], channel.stack[:5]))
    print("adding a weight-2 error breaks it: witness %s, violation %.3f"
          % ("+".join(verdict.witness_pair), verdict.violation))

    recovery = q.repetition_recovery()
    print("\nrecovery operators (probability independent):")
    for label in recovery.labels:
        print("  " + label)
    print("completeness defect: %.1e" % recovery.completeness_defect())

    print("\n  p     F_code      F_baseline")
    for p in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5):
        f = q.entanglement_fidelity(code, recovery, q.enlarge(q.bitflip_single(p), 3)).value
        b = q.baseline_no_qec(q.bitflip_single(p))
        print("  %.2f  %.8f  %.8f" % (p, f, b))

    coded = lambda p: q.entanglement_fidelity(
        code, recovery, q.enlarge(q.bitflip_single(p), 3)
    ).value
    baseline = lambda p: q.baseline_no_qec(q.bitflip_single(p))
    report = q.threshold_analysis(coded, baseline, grid=np.linspace(0, 1, 101))
    print("\ncoding helps on [%.2f, %.2f]" % report.coding_useful_range)
    print("failure probability stays below p up to p = %.10f" % report.failure_threshold)


if __name__ == "__main__":
    main()
