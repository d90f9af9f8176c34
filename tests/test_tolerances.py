"""README's Tolerances table is the one list of verdict gates, checked against the source.

Every public numeric constant assigned at module level in ``src/qecwb/`` is a
gate and must have one table row with its value and module; every row must
name such a constant.  The golden ratio ``fletcher.GOLDEN`` is exempt.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import qecwb

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
EXEMPT = {("fletcher", "GOLDEN")}  # a mathematical constant, not a gate
ROW = re.compile(r"\| `([A-Z][A-Z0-9_]*)`[^|]* \| `([^`]+)` \| `(\w+)` \|")


def source_gates() -> dict:
    """(module, name) -> value of every public numeric module-level constant of qecwb."""
    gates = {}
    for info in pkgutil.iter_modules(qecwb.__path__):
        module = importlib.import_module("qecwb." + info.name)
        for node in ast.parse(inspect.getsource(module)).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                name = getattr(target, "id", "")
                value = getattr(module, name, None)
                if (re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and type(value) in (int, float)
                        and (info.name, name) not in EXEMPT):
                    gates[(info.name, name)] = value
    return gates


def table_gates(text: str) -> dict:
    """(module, name) -> value of every row of the README's Tolerances table."""
    section = text.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    gates = {}
    for line in rows:
        match = ROW.match(line)
        assert match, "malformed Tolerances row: %s" % line
        name, value, module = match.groups()
        assert (module, name) not in gates, "%s.%s is listed twice" % (module, name)
        gates[(module, name)] = float(value)
    return gates


def mismatches(table: dict, source: dict) -> list[str]:
    out = ["README lists %s.%s, which src/qecwb does not define" % key
           for key in sorted(table.keys() - source.keys())]
    out += ["README misses %s.%s = %r" % (*key, source[key])
            for key in sorted(source.keys() - table.keys())]
    out += ["README gives %s.%s as %r, the source as %r" % (*key, table[key], source[key])
            for key in sorted(table.keys() & source.keys()) if table[key] != source[key]]
    return out


def readme_text() -> str:
    with open(README) as fh:
        return fh.read()


def test_readme_tolerance_table_matches_the_source():
    assert mismatches(table_gates(readme_text()), source_gates()) == []


@pytest.mark.parametrize("doctor, expected", [
    (lambda t: re.sub(r"\| `CHANNEL_TOL` .*\n", "", t), "README misses channels.CHANNEL_TOL"),
    (lambda t: t.replace("| `CHANNEL_TOL` |",
                         "| `CHANNEL_TOL` | `1e-12` | `channels` | x |\n| `NO_SUCH_TOL` |"),
     "README lists channels.NO_SUCH_TOL"),
    (lambda t: t.replace("| `CHANNEL_TOL` | `1e-12` |", "| `CHANNEL_TOL` | `1e-11` |"),
     "README gives channels.CHANNEL_TOL as 1e-11"),
], ids=["missing", "unknown", "value"])
def test_table_check_reports_each_kind_of_drift(doctor, expected):
    text = readme_text()
    doctored = doctor(text)
    assert doctored != text
    found = mismatches(table_gates(doctored), source_gates())
    assert len(found) == 1 and found[0].startswith(expected), found
