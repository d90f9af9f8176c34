"""Named source edits that the test suite must catch, and the script that checks it does.

Each mutant is one exact text edit of one module under ``src/qecwb/`` and the
test file that must fail on it.  ``python tests/mutants.py`` copies ``src/``
into a fresh temporary directory for each mutant, applies the edit there and
runs that test file against the copy.  A mutant is killed when pytest exits
with status 1 (tests ran and at least one failed); a collection error or a
crash does not count.  An edit whose text does not occur exactly once also
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
           'np.einsum("glia,gmja->glmij", x.conj(), x)', 'np.einsum("glia,gmja->glmij", x, x)',
           "tests/test_kernel_oracle.py"),
    Mutant("upper-pairs-reversed", "conditions.py",
           "return [(a, b) for i, a in enumerate(items) for b in items[i:]]",
           "return [(a, b) for i, a in enumerate(items) for b in items[i:]][::-1]",
           "tests/test_kernel_oracle.py"),
    Mutant("cp-recovery-wrong-sign", "recovery.py",
           "return fletcher_recovery(1 / np.sqrt(2), 1 / np.sqrt(2))",
           "return fletcher_recovery(1 / np.sqrt(2), -1 / np.sqrt(2))",
           "tests/test_recovery.py"),
    Mutant("leftover-row-key-dropped", "fidelity.py",
           '("O",) * leftover', "()",
           "tests/test_fidelity.py"),
    Mutant("leftover-allowed-anywhere", "recovery.py",
           'if "O" in self.labels[:-1]:', "if False:",
           "tests/test_recovery.py"),
    # The fidelity table keeps its leftover row; the term-loop oracle's keys do not match.
    Mutant("operators-include-leftover", "recovery.py",
           "return list(self.stack if self.leftover is None else self.stack[:-1])",
           "return list(self.stack)",
           "tests/test_kernel_oracle.py"),
    Mutant("channel-stack-writeable", "channels.py",
           "stack.flags.writeable = False", "stack.flags.writeable = True",
           "tests/test_channels.py"),
    Mutant("code-codeword-not-copied", "codes.py",
           "zero = np.array(self.zero_logical, dtype=complex)",
           "zero = np.asarray(self.zero_logical, dtype=complex)",
           "tests/test_codes.py"),
    Mutant("pair-codeword-writeable", "codes.py",
           'object.__setattr__(self, "codewords", self._code.codewords)', "pass",
           "tests/test_codes.py"),
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
