"""Named source edits that the test suite must catch, and the script that checks it does.

Each mutant is one exact text edit of one module under ``src/qecwb/`` and the
test file that must fail on it.  ``python tests/mutants.py`` copies ``src/``
into a fresh temporary directory for each mutant, applies the edit there and
runs that test file against the copy.  A mutant is killed when pytest exits
with status 1 (tests ran and at least one failed) and no ``NameError`` shows
in its output; a collection error, a crash or an edit that only breaks a
name does not count.  An edit whose text does not occur exactly once also
fails, so the list cannot go stale unnoticed.  The script exits nonzero
unless every mutant is killed.

pytest does not collect this file; it runs as its own CI step.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/qecwb/
    old: str
    new: str
    tests: str  # test file, relative to the repository root, that must fail


MUTANTS = (
    # Damping images are real, so only the random complex oracles see this.
    Mutant("gram-drops-conjugate", "conditions.py",
           'np.einsum("gpa,gqa->gpq", x.conj(), x)', 'np.einsum("gpa,gqa->gpq", x, x)',
           "tests/test_kernel_oracle.py"),
    # Unscaled, the design still fits, but dividing by the scale no longer undoes it.
    Mutant("fit-drops-column-scale", "conditions.py",
           "    lhs /= scale\n", "",
           "tests/test_kernel_oracle.py"),
    # Polyfit's warning becomes an error; without it the fit returns a slope.
    Mutant("fit-rank-unchecked", "conditions.py",
           "if rank < 2:", "if rank < 1:",
           "tests/test_conditions.py"),
    # Two distinct samples are the documented minimum of a sweep.
    Mutant("sweep-needs-three-samples", "conditions.py",
           "if len(set(gammas)) < 2", "if len(set(gammas)) <= 2",
           "tests/test_conditions.py"),
    # An error set whose violations are all exactly zero has no witness.
    Mutant("zero-violation-witnessed", "conditions.py",
           "if worst > 0.0 else None", "if worst >= 0.0 else None",
           "tests/test_conditions.py"),
    # One pair order feeds the violations and the witness labels alike.
    Mutant("upper-pairs-reversed", "conditions.py",
           "    rows, cols = np.triu_indices(n)\n",
           "    rows, cols = (index[::-1] for index in np.triu_indices(n))\n",
           "tests/test_kernel_oracle.py"),
    # The matmul then fails in numpy with its own message.
    Mutant("images-dimension-unchecked", "linalg.py",
           "    if ops.shape[-1] != isometry.shape[0]:\n"
           '        raise ValueError("code and error dimensions differ")\n',
           "",
           "tests/test_conditions.py"),
    # Each of these gate edits differs from the source only at the tolerance itself,
    # so each test puts an input exactly on that value.
    Mutant("exact-gate-exclusive", "conditions.py",
           "worst <= EXACT_TOL", "worst < EXACT_TOL",
           "tests/test_conditions.py"),
    Mutant("first-order-slope-gate-exclusive", "conditions.py",
           "self.slope >= FIRST_ORDER_SLOPE", "self.slope > FIRST_ORDER_SLOPE",
           "tests/test_conditions.py"),
    Mutant("scaling-zero-floor-exclusive", "conditions.py",
           "(columns <= ZERO_FLOOR).all(axis=0)", "(columns < ZERO_FLOOR).all(axis=0)",
           "tests/test_conditions.py"),
    Mutant("detectable-floor-exclusive", "conditions.py",
           "zero = columns <= ZERO_FLOOR", "zero = columns < ZERO_FLOOR",
           "tests/test_conditions.py"),
    # A one-entry stack of 1e70 sits exactly on WEIGHT_BOUND.
    Mutant("weight-gate-exclusive", "linalg.py",
           "np.vdot(m, m).real <= WEIGHT_BOUND", "np.vdot(m, m).real < WEIGHT_BOUND",
           "tests/test_channels.py"),
    Mutant("hermiticity-gate-exclusive", "linalg.py",
           "if not max_abs(m - dagger(m)) <= HERMITICITY_TOL:",
           "if not max_abs(m - dagger(m)) < HERMITICITY_TOL:",
           "tests/test_linalg.py"),
    Mutant("negative-eigenvalue-gate-inclusive", "linalg.py",
           "values.min(initial=0.0) < -NEGATIVE_EIGENVALUE_TOL",
           "values.min(initial=0.0) <= -NEGATIVE_EIGENVALUE_TOL",
           "tests/test_linalg.py"),
    Mutant("eigenvalue-clamp-inclusive", "linalg.py",
           "np.where(values < EIGENVALUE_CLAMP_TOL", "np.where(values <= EIGENVALUE_CLAMP_TOL",
           "tests/test_linalg.py"),
    Mutant("orthonormal-gate-exclusive", "linalg.py",
           "<= ORTHONORMAL_TOL:", "< ORTHONORMAL_TOL:",
           "tests/test_linalg.py"),
    Mutant("gram-schmidt-keeps-residual-at-tol", "linalg.py",
           "if norm > tol:", "if norm >= tol:",
           "tests/test_linalg.py"),
    Mutant("phase-pivot-at-tolerance", "linalg.py",
           "np.abs(col) > PHASE_PIVOT_TOL", "np.abs(col) >= PHASE_PIVOT_TOL",
           "tests/test_linalg.py"),
    # Dividing by conj(p) / |p| multiplies by p / |p|: the pivot becomes p**2 / |p|.
    Mutant("phase-rotation-inverted", "linalg.py",
           "col * (pivot.conjugate() / abs(pivot))", "col / (pivot.conjugate() / abs(pivot))",
           "tests/test_linalg.py"),
    # LAPACK reads an rcond of 1 or more as machine precision, below polyfit's len * eps.
    Mutant("fit-rcond-at-machine-precision", "conditions.py",
           "len(gammas) * np.finfo(float).eps", "len(gammas) / np.finfo(float).eps",
           "tests/test_conditions.py"),
    # Column 0 is the first pair's violation, not the worst pair's.
    Mutant("violation-order-reads-first-column", "conditions.py",
           "ViolationOrder(True, None) if vanishing[-1] else ViolationOrder(False, float(slopes[-1]))",
           "ViolationOrder(True, None) if vanishing[0] else ViolationOrder(False, float(slopes[0]))",
           "tests/test_conditions.py"),
    Mutant("cp-recovery-wrong-sign", "recovery.py",
           "return fletcher_recovery(1 / np.sqrt(2), 1 / np.sqrt(2))",
           "return fletcher_recovery(1 / np.sqrt(2), -1 / np.sqrt(2))",
           "tests/test_recovery.py"),
    # The row keys are formed once per recovery, next to V^dag R_k in its memo.
    Mutant("leftover-row-key-dropped", "fidelity.py",
           '("O",) * leftover', "()",
           "tests/test_fidelity.py"),
    # numpy scalars reach the curves: a callback's 1 - p and math.sqrt leave Python floats.
    Mutant("sweep-points-numpy-scalars", "fidelity.py",
           "grid.tolist()", "list(grid)",
           "tests/test_fidelity.py"),
    # Each step transposes the product so far, so on four qubits damping's |0><1| enters as |1><0|
    # on qubits 1 and 3 alone: a permuted code and recovery under the same channel read another fidelity.
    Mutant("enlarge-product-transposed-each-step", "channels.py",
           "left = ((a // 2 * k + r // 2) * k + c // 2).ravel()",
           "left = ((a // 2 * k + c // 2) * k + r // 2).ravel()",
           "tests/test_fidelity.py"),
    # Real inputs cannot tell; a complex error or projector gives a U that neither factors nor is unitary.
    Mutant("polar-outer-unconjugated", "recovery.py",
           "u += np.outer(e, d.conj())", "u += np.outer(e, d)",
           "tests/test_recovery.py"),
    Mutant("psd-sqrt-drops-conjugate", "linalg.py",
           "root = (vectors * np.sqrt(values)) @ dagger(vectors)",
           "root = (vectors * np.sqrt(values)) @ vectors.T",
           "tests/test_linalg.py"),
    Mutant("leftover-allowed-anywhere", "recovery.py",
           'if "O" in self.labels[:-1]:', "if False:",
           "tests/test_recovery.py"),
    # The fidelity table keeps its leftover row; the term-loop oracle's keys do not match.
    Mutant("operators-include-leftover", "recovery.py",
           "return list(self.stack if self.leftover is None else self.stack[:-1])",
           "return list(self.stack)",
           "tests/test_kernel_oracle.py"),
    # For n = 3 the label order keeps "000" and "111" in place; the 4-qubit
    # damping labels of the ket-image test do move.
    Mutant("enlarge-label-order-dropped", "channels.py",
           "rows = _label_order(n)[1] if 2 * k == 2 ** n else np.arange(2 * k)",
           "rows = np.arange(2 * k)",
           "tests/test_channels.py"),
    Mutant("baseline-unitary-weight-ignored", "fidelity.py",
           "total += (prob if unitary else 1.0) * abs(a00 + a11) ** 2",
           "total += 1.0 * abs(a00 + a11) ** 2",
           "tests/test_fidelity.py"),
    # Exact Pauli branches have g00 == g11; the bit-for-bit oracles on branches with g00 != g11 see this.
    Mutant("baseline-prob-from-g00-alone", "fidelity.py",
           "prob = (g00 + g11).real / 2", "prob = g00.real",
           "tests/test_kernel_oracle.py"),
    Mutant("channel-stack-writeable", "channels.py",
           "stack.flags.writeable = False", "stack.flags.writeable = True",
           "tests/test_channels.py"),
    # Undaggered, the unitality sum is the completeness sum: damping reads unital.
    Mutant("certify-unitality-undaggered", "channels.py",
           "completeness_defect(channel.stack.conj().transpose(0, 2, 1))",
           "completeness_defect(channel.stack)",
           "tests/test_channels.py"),
    # certify then passes the 5e-11-defect channel that the CLI's check fails.
    Mutant("certify-gate-looser", "channels.py",
           "channel.completeness_defect() <= CHANNEL_TOL",
           "channel.completeness_defect() <= 100 * CHANNEL_TOL",
           "tests/test_channels.py"),
    Mutant("code-codeword-not-copied", "codes.py",
           "zero = np.array(zero_logical, dtype=complex)",
           "zero = np.asarray(zero_logical, dtype=complex)",
           "tests/test_codes.py"),
    # A pair's codewords are its code's arrays, frozen by QuantumCode's constructor.
    Mutant("pair-codeword-writeable", "codes.py",
           "value.flags.writeable = False", "value.flags.writeable = value is zero",
           "tests/test_codes.py"),
    # Every named code is real, so only the complex-amplitude code sees this.
    Mutant("code-projector-drops-conjugate", "codes.py",
           "projector = iso @ dagger(iso)", "projector = iso @ iso.T",
           "tests/test_codes.py"),
    # Unchecked, a result holder built with a value too few or too many drops or lacks a field.
    Mutant("frozen-field-count-unchecked", "linalg.py",
           "if len(values) != len(self._fields):", "if False:",
           "tests/test_records.py"),
    # Five factors of an entry on the weight bound overflow before the entry gate sees them.
    Mutant("enlarge-qubit-cap-dropped", "channels.py",
           "    if n > 4:\n", "    if False:\n",
           "tests/test_channels.py"),
    # Unchecked, an 8 x 8 error against a 16-dimensional code ends in numpy's matmul error.
    Mutant("detectability-dimension-unchecked", "conditions.py",
           "    if np.shape(a) != p.shape:\n", "    if False:\n",
           "tests/test_conditions.py"),
    # A search memo keyed on the first sample's channel alone: a second sweep that shares
    # that sample reads the first sweep's slopes and flags, and cache_clear still empties it.
    Mutant("search-rows-keyed-on-first-channel", "conditions.py",
           "@lru_cache(maxsize=1)\n"
           "def _search_orders(gammas: tuple[float, ...], *enlarged: KrausChannel) -> dict:\n",
           "class _AnyRest(tuple):\n"
           "    __hash__, __eq__ = (lambda self: 0), (lambda self, other: True)\n\n\n"
           "def _search_orders(gammas, first, *rest):\n"
           "    return _orders_by_first(first, _AnyRest((gammas, *rest)))\n\n\n"
           "_search_orders.cache_clear = lambda: _orders_by_first.cache_clear()\n\n\n"
           "@lru_cache(maxsize=1)\n"
           "def _orders_by_first(first, rest) -> dict:\n"
           "    gammas, enlarged = rest[0], (first, *rest[1:])\n",
           "tests/test_conditions.py"),
    # Each shared pair reads the next pair's slopes and flags (the last pair the first's).
    Mutant("search-fit-slice-shifted", "conditions.py",
           "(fit.reshape(len(states), -1) for fit in",
           "(np.roll(fit, -16).reshape(len(states), -1) for fit in",
           "tests/test_kernel_oracle.py"),
    # A hand-built pair whose codewords are not those of its index pair reads another
    # pair's columns.
    Mutant("search-gram-trusts-index-pair", "conditions.py",
           "search[pair] if pair in search",
           "search[shared[pair.index_pair]]"
           " if pair.index_pair in (shared := {p.index_pair: p for p in search})",
           "tests/test_conditions.py"),
    # Ungated, a NaN error set reads as "not correctable, no witness", kl_gram's diag_eigs
    # (nan, nan) and a detection probability nan; a NaN recovery as "not trace preserving".
    Mutant("weight-gate-dropped", "channels.py",
           '        bounded(stack, "Kraus operators")\n', "",
           "tests/test_channels.py"),
    # Ungated, a NaN error reads DetectabilityReport(nan, nan), a 1e200 state's images overflow.
    Mutant("detectability-error-ungated", "conditions.py",
           'bounded(np.asarray(a, dtype=complex), "error operator")', "np.asarray(a, dtype=complex)",
           "tests/test_conditions.py"),
    Mutant("detection-state-ungated", "conditions.py",
           'state = bounded(np.asarray(state, dtype=complex), "state")',
           "state = np.asarray(state, dtype=complex)",
           "tests/test_conditions.py"),
    # The slice relies on enlarge listing the weight <= 1 labels first.
    Mutant("weight-le1-rows-shifted", "conditions.py",
           ".stack[:len(WEIGHT_LE1_LABELS)]", ".stack[1:1 + len(WEIGHT_LE1_LABELS)]",
           "tests/test_conditions.py"),
    Mutant("residue-largest-eigenvalue-unchecked", "recovery.py",
           "if not abs(p_l - eigs[-1]) <= EIGENVALUE_MATCH_TOL:", "if False:",
           "tests/test_recovery.py"),
    # Ungated, the norm of a 1e200 codeword warns of overflow before the named error.
    Mutant("codeword-gate-dropped", "codes.py",
           'np.linalg.norm(bounded(v, "codewords"))', "np.linalg.norm(v)",
           "tests/test_codes.py"),
    # The codes' tolerance gates, each hit by an input exactly on its tolerance.
    Mutant("codespace-gate-exclusive", "codes.py",
           "max_abs(self.projector @ state - state) <= CODESPACE_TOL",
           "max_abs(self.projector @ state - state) < CODESPACE_TOL",
           "tests/test_codes.py"),
    Mutant("orthogonality-gate-exclusive", "codes.py",
           "if not abs(np.vdot(zero, one)) <= CODEWORD_TOL:",
           "if not abs(np.vdot(zero, one)) < CODEWORD_TOL:",
           "tests/test_codes.py"),
    Mutant("permutation-gate-exclusive", "codes.py",
           "max_abs(moved - c2.projector) <= CODESPACE_TOL", "max_abs(moved - c2.projector) < CODESPACE_TOL",
           "tests/test_codes.py"),
    Mutant("gate-value-not-in-readme", "recovery.py",
           "PROJECTOR_TOL = 1e-10", "PROJECTOR_TOL = 1e-9",
           "tests/test_tolerances.py"),
    # Every array holder inherits the frozen base's assignment guard.
    Mutant("frozen-fields-assignable", "linalg.py",
           'raise AttributeError("cannot assign to field %r" % name)',
           "object.__setattr__(self, name, value)",
           "tests/test_records.py"),
    # Without the NaN-rejecting gate, NaN input ends in another error (or none).
    Mutant("hermiticity-gate-lets-nan-through", "linalg.py",
           "if not max_abs(m - dagger(m)) <= HERMITICITY_TOL:",
           "if max_abs(m - dagger(m)) > HERMITICITY_TOL:",
           "tests/test_linalg.py"),
    # A V cached per channel: a second code under the same channel reads the first code's V.
    Mutant("channel-factors-keyed-on-channel-alone", "fidelity.py",
           "@lru_cache(maxsize=_ENLARGE_CACHE_SIZE)\n"
           "def _channel_factors(code: QuantumCode, channel: KrausChannel) -> np.ndarray:\n"
           '    """Read-only (L, d, 2) stack of A_l V."""\n'
           "    right = _images(channel.stack, code.isometry)\n",
           "_BY_CHANNEL = {}\n\n\n"
           "def _channel_factors(code: QuantumCode, channel: KrausChannel) -> np.ndarray:\n"
           "    right = _BY_CHANNEL.setdefault(channel, _images(channel.stack, code.isometry))\n",
           "tests/test_fidelity.py"),
    # Dividing by the root rounds differently from numpy's multiply by 1 / norm on about a fifth of gammas.
    Mutant("standard-params-divided", "recovery.py",
           "complex(c2 * scale, 0.0)", "complex(c2 / math.sqrt(1.0 + c2 * c2), 0.0)",
           "tests/test_kernel_oracle.py"),
    Mutant("numeric-score-drops-folded-two", "fletcher.py",
           "base_fidelity(gamma), 2.0 * (1.0 - gamma),", "base_fidelity(gamma), 1.0 - gamma,",
           "tests/test_kernel_oracle.py"),
    # Three samples are the documented minimum of the series fit (the quadratic branch).
    Mutant("series-needs-four-samples", "fidelity.py",
           "return len(gammas) >= 3 and", "return len(gammas) > 3 and",
           "tests/test_fidelity.py"),
    # Four samples of a cubic fitted by a quadratic misread c2.
    Mutant("cubic-needs-five-samples", "fidelity.py",
           "degree = 3 if len(gammas) >= 4 else 2", "degree = 3 if len(gammas) > 4 else 2",
           "tests/test_fidelity.py"),
    # Distinct samples 1e-9 or 1e-6 apart near 1e-3, or so small that g**2 underflows, fit at low rank.
    Mutant("series-rank-unchecked", "fidelity.py",
           "if rank < degree + 1:", "if rank < degree - 1:",
           "tests/test_fidelity.py"),
    # An error that kills a codespace direction leaves a singular value outside the band.
    # No test passed r = 0 to the sweep's (0, 1] check.
    Mutant("fletcher-radius-zero-accepted", "fletcher.py",
           "if not 0.0 < r <= 1.0:", "if not 0.0 <= r <= 1.0:",
           "tests/test_fletcher.py"),
    Mutant("residue-band-widened", "recovery.py",
           "upper = np.sqrt(p_l) - np.sqrt(lambda_l * p_l)", "upper = np.sqrt(p_l) + np.sqrt(lambda_l * p_l)",
           "tests/test_recovery.py"),
    # Eight entries hold half of a 16-point table: its threshold pass rebuilds every channel.
    Mutant("enlarge-cache-holds-eight", "channels.py",
           "_ENLARGE_CACHE_SIZE = 32", "_ENLARGE_CACHE_SIZE = 8",
           "tests/test_fidelity.py"),
    # A golden-section bracket stepped the wrong way; the final parabolic step cannot recover it.
    Mutant("golden-section-c-outside-bracket", "fletcher.py",
           "            c = hi - GOLDEN * (hi - lo)", "            c = hi + GOLDEN * (hi - lo)",
           "tests/test_fletcher.py"),
    Mutant("golden-section-d-outside-bracket", "fletcher.py",
           "            d = lo + GOLDEN * (hi - lo)", "            d = lo - GOLDEN * (hi - lo)",
           "tests/test_fletcher.py"),
    # A radius exactly 1 + RADIUS_SLACK is accepted.
    Mutant("fletcher-radius-gate-exclusive", "fletcher.py",
           "if not self.radius <= 1.0 + RADIUS_SLACK:", "if not self.radius < 1.0 + RADIUS_SLACK:",
           "tests/test_fletcher.py"),
    # -0.0 == 0.0, so without the sign the -0.0 channel, whose jump operator holds -0.0
    # entries, and the 0.0 channel share one cache entry: whichever came first.
    Mutant("single-channel-key-drops-sign", "channels.py",
           "math.copysign(1.0, rate)", "1.0",
           "tests/test_channels.py"),
    # A float16 rate computes 1 - rate in float16 while math.sqrt(rate) sees the exact
    # value: the channel misses its trace-preservation gate and keys apart from float(rate).
    Mutant("rate-kept-in-input-precision", "linalg.py",
           "return float(x) if real else math.nan", "return x if real else math.nan",
           "tests/test_channels.py"),
    # base_fidelity(nan) returns nan, and a rate above 1 a number.
    Mutant("closed-form-rate-unchecked", "fletcher.py",
           "    gamma = _check_damping(gamma)\n    c = 1.0 - gamma\n    return 0.25 * (",
           "    c = 1.0 - gamma\n    return 0.25 * (",
           "tests/test_fletcher.py"),
    # One enlargement per qubit count: the phase-flip set reads the bit-flip products.
    Mutant("enlarge-keyed-on-n-alone", "channels.py",
           "    return _enlarge_pair(n, channel)\n",
           "    return _BY_N.setdefault(n, _enlarge_pair(n, channel))\n\n\n_BY_N = {}\n",
           "tests/test_channels.py"),
    # float() lets a complex sample end in TypeError and a bool pass as 0 or 1.
    Mutant("noise-samples-read-by-float", "conditions.py",
           '    gammas = tuple(_real_rates(gammas, "noise samples"))\n',
           "    gammas = tuple(float(g) for g in gammas)\n",
           "tests/test_fidelity.py"),
    # A (1, 2) grid reads as a report of pairs; a scalar grid ends in TypeError.
    Mutant("grid-dimension-ungated", "fidelity.py",
           "    if not flat:\n", "    if False:\n",
           "tests/test_fidelity.py"),
    # A NaN tol lists no term, a vacuous pass; -1.0 lists the exact zeros.
    Mutant("nonvanishing-tol-ungated", "fidelity.py",
           "    if not 0.0 <= tol < math.inf:\n", "    if False:\n",
           "tests/test_fidelity.py"),
    # Unguarded, a scalar given for a sequence of samples or radii ends in TypeError.
    Mutant("samples-iteration-unguarded", "linalg.py",
           "    try:\n        entries = iter(values)\n    except TypeError:\n",
           "    entries = iter(values)\n    if False:\n",
           "tests/test_fidelity.py"),
)


def survives(mutant: Mutant) -> Optional[str]:
    """None when the mutant's tests fail on the mutated copy, else why it was not killed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = os.path.join(src, "qecwb", mutant.module)
        with open(target) as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "its text occurs %d times in src/qecwb/%s" % (text.count(mutant.old), mutant.module)
        with open(target, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        # The temporary directory is the working directory, so hypothesis keeps
        # the failing examples it stores there out of the repository.
        probe = subprocess.run([sys.executable, "-c", "import qecwb; print(qecwb.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True)
        if not probe.stdout.startswith(src):
            return "qecwb was imported from %r, not from the mutated copy" % probe.stdout.strip()
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              os.path.join(ROOT, mutant.tests)],
                             cwd=tmp, env=env, capture_output=True, text=True)
        if run.returncode != 1:
            return "pytest exited %d on %s" % (run.returncode, mutant.tests)
        if "NameError" in run.stdout:
            return "%s failed on a NameError, not on a check" % mutant.tests
    return None


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        reason = survives(mutant)
        survivors += reason is not None
        print("%-8s %s (%s)%s" % ("killed" if reason is None else "SURVIVED", mutant.name,
                                  mutant.tests, "" if reason is None else ": " + reason))
    print("%d of %d mutants killed" % (len(MUTANTS) - survivors, len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
