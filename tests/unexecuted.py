"""Lines of ``src/qecwb/`` that the Tier-1 suite never executes, checked against a ledger.

``python tests/unexecuted.py`` runs the Tier-1 suite in this process under
``sys.settrace``, recording every line of ``src/qecwb/`` that runs, and
compares the lines that never ran with ``tests/unexecuted.txt``; hypothesis
draws from a fixed seed.  A line
counts as executable when the compiled module holds an instruction on it.
The ledger is keyed on the module and the line's stripped source text, with
one reason per entry.  The script exits nonzero when the suite fails, when a
line that never ran has no ledger entry, or when an entry matches no such
line (it is stale: the line ran, moved or went).  Lines that only the
subprocess runs of the golden corpus reach belong in the ledger, because a
child interpreter is not traced.  Uses the standard library and pytest.

pytest does not collect this file; it runs as its own CI step.
"""

from __future__ import annotations

import os
import sys
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qecwb")
LEDGER = os.path.join(ROOT, "tests", "unexecuted.txt")


def executable_lines(path: str) -> set[int]:
    """Line numbers on which the compiled module at ``path`` holds an instruction."""
    with open(path) as fh:
        pending = [compile(fh.read(), path, "exec")]
    lines = set()
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        pending.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def read_ledger(path: str) -> dict[tuple[str, str], str]:
    """(module, stripped source) -> reason.  An entry is a line ``module: source`` followed by
    an indented ``why: reason`` line; blank lines and lines starting with ``#`` are skipped."""
    entries, key = {}, None
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if raw[0].isspace() and key is not None and text.startswith("why: "):
                entries[key], key = text[len("why: "):], None
            elif not raw[0].isspace() and key is None and ": " in text:
                module, source = text.split(": ", 1)
                key = (module, source)
                if key in entries:
                    raise SystemExit("%s:%d: duplicate entry" % (path, number))
            else:
                raise SystemExit("%s:%d: expected %s" % (path, number,
                                 "an indented 'why: ' line" if key else "'module: source'"))
    if key is not None:
        raise SystemExit("%s: the last entry has no 'why: ' line" % path)
    return entries


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status on ``args`` and the (file, line) of every ``src/qecwb`` line it ran."""
    import pytest

    ran = set()
    prefix = PACKAGE + os.sep

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    import qecwb

    if os.path.dirname(os.path.abspath(qecwb.__file__)) != PACKAGE:
        raise SystemExit("qecwb was imported from %r, not from %s" % (qecwb.__file__, PACKAGE))
    return int(status), ran


def main() -> int:
    os.chdir(ROOT)
    # a fixed hypothesis seed, so the property tests reach the same lines on every run
    status, ran = run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0"])
    if status != 0:
        print("the Tier-1 suite exited %d; no line count is trusted" % status)
        return 1
    ledger = read_ledger(LEDGER)
    used, listed, missing = set(), 0, []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        for number in sorted(executable_lines(path)):
            if (path, number) in ran:
                continue
            key = (name, source[number - 1].strip())
            if key in ledger:
                used.add(key)
                listed += 1
            else:
                missing.append("src/qecwb/%s:%d: %s" % (name, number, key[1]))
    stale = ["%s: %s" % key for key in ledger if key not in used]
    for line in missing:
        print("never executed, not in the ledger: " + line)
    for line in stale:
        print("stale ledger entry (no unexecuted line has this text): " + line)
    print("%d unexecuted lines in the ledger, %d missing from it, %d stale entries"
          % (listed, len(missing), len(stale)))
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
