"""Replay the golden CLI corpus in-process and compare it with the recording.

Every case in ``tests/golden/`` (written by ``tests/golden/generate.py``
from a ``python -m qecwb.cli`` subprocess) runs again through ``main()``;
a ``SystemExit`` is turned into what the interpreter would print and
return, so the comparison also checks that emulation.  On the recording
platform (same numpy, BLAS and OpenBLAS core) stdout and stderr must match
byte for byte.  Elsewhere the non-numeric tokens and the exit code must
still match exactly, and every number to ``PORTABLE_ABS_TOL``.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from qecwb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Largest absolute change of a printed number when the corpus is replayed
# on other OpenBLAS kernel cores (OPENBLAS_CORETYPE=Haswell, Sandybridge,
# Nehalem, Prescott): 4.1e-11, in the ad-fidelity fit footers of the 5-point
# custom grid (1.5e-11 on the default grid); every other number moved by at
# most 1.3e-15, and no text or exit code changed.
PORTABLE_ABS_TOL = 1e-10

# a number is not part of a name: "c2" and "4-qubit" keep their text
_NUMBER = re.compile(r"(?<![A-Za-z_])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

# byte-for-byte comparison only on the platform the corpus was recorded on
EXACT = generate.fingerprint() == json.loads((GOLDEN / "fingerprint.json").read_text())
CASE_FILES = sorted(p for p in GOLDEN.glob("*.json") if p.name != "fingerprint.json")


def _tokens(text: str) -> tuple[list[str], list[float]]:
    """The text with each number cut out, and the numbers in order."""
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def compare(recorded: dict, got: dict, exact: bool) -> list[str]:
    """Differences of a replayed case from its recording; empty when they agree."""
    problems = []
    if got["exit"] != recorded["exit"]:
        problems.append("exit %r, recorded %r" % (got["exit"], recorded["exit"]))
    for stream in ("stdout", "stderr"):
        want, have = "".join(recorded[stream]), "".join(got[stream])
        if exact or want == have:
            if want != have:
                problems.append("%s differs byte for byte" % stream)
            continue
        (want_text, want_nums), (have_text, have_nums) = _tokens(want), _tokens(have)
        if want_text != have_text:
            problems.append("%s differs outside its numbers" % stream)
            continue
        worst = max((abs(a - b) for a, b in zip(want_nums, have_nums)), default=0.0)
        if worst > PORTABLE_ABS_TOL:
            problems.append("%s numbers differ by up to %.3e" % (stream, worst))
    return problems


def replay(capsys, monkeypatch, argv, env) -> dict:
    """Run one case through ``main()`` as ``python -m qecwb.cli`` would run it."""
    monkeypatch.delenv("QECWB_TOL", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    extra_err = ""
    try:
        code = main(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            code, extra_err = 1, exc.code + "\n"
        else:
            code = 0 if exc.code is None else exc.code
    out, err = capsys.readouterr()
    return {"exit": code, "stdout": [out], "stderr": [err + extra_err]}


def test_corpus_holds_every_case_of_the_generator():
    names = {generate.case_name(argv, env) + ".json" for argv, env in generate.CASES}
    assert names == {p.name for p in CASE_FILES}


@pytest.mark.parametrize("path", CASE_FILES, ids=[p.stem for p in CASE_FILES])
def test_cli_matches_golden_corpus(path, capsys, monkeypatch):
    recorded = json.loads(path.read_text())
    got = replay(capsys, monkeypatch, recorded["argv"], recorded["env"])
    assert compare(recorded, got, EXACT) == []


def _case(stdout, exit_code=0):
    return {"exit": exit_code, "stdout": [stdout], "stderr": []}


@pytest.mark.parametrize("exact", [True, False])
def test_comparator_reports_each_kind_of_mismatch(exact):
    recorded = _case("c2 = -1.7500000000000002\nwitness 0000+1000\n")
    assert compare(recorded, _case("c2 = -1.7500000000000002\nwitness 0000+1000\n"), exact) == []
    moved = _case("c2 = -1.7500000000000004\nwitness 0000+1000\n")
    assert compare(recorded, moved, exact) == (["stdout differs byte for byte"] if exact else [])
    far = _case("c2 = -1.7500001\nwitness 0000+1000\n")
    assert compare(recorded, far, exact) == [
        "stdout differs byte for byte" if exact else "stdout numbers differ by up to 1.000e-07"]
    renamed = _case("c1 = -1.7500000000000002\nwitness 0000+1000\n")
    assert compare(recorded, renamed, exact) == [
        "stdout differs byte for byte" if exact else "stdout differs outside its numbers"]
    failed = _case("c2 = -1.7500000000000002\nwitness 0000+1000\n", exit_code=1)
    assert compare(recorded, failed, exact) == ["exit 1, recorded 0"]
