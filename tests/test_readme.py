"""README's Library tour runs as written: every value its doctest prints is checked."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_a_doctest():
    failed, attempted = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert attempted >= 14 and failed == 0
