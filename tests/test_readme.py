"""README runs as written: every value its Library tour's doctest prints is checked, and
every line of its command-line synopsis runs, each bracketed default as the default."""

import doctest
import re
from pathlib import Path

from qecwb.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# An option and its value, bracketed when optional; a value with "|" lists choices.
OPTION = re.compile(r"(\[?)(--[\w-]+) ([^\s\]]+)")


def test_library_tour_runs_as_a_doctest():
    failed, attempted = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert attempted >= 14 and failed == 0


def synopsis():
    """The lines of the ``sh`` block under README's "Command line" heading."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def parse(line):
    """The bare argv (required options at their first choice), the bracketed defaults, the comment."""
    command, _, comment = line.partition("#")
    words = command.split()
    assert words[0] == "qecwb", line
    bare, defaults = [words[1]], []
    for bracket, flag, value in OPTION.findall(command):
        if not bracket:
            bare += [flag, value.split("|")[0]]
        elif "|" not in value and value != "FILE":
            defaults += [flag, value]
    return bare, defaults, comment.strip()


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_command_line_synopsis_runs_with_its_defaults(capsys):
    commands, written = [], {}
    for line in synopsis():
        bare, defaults, comment = parse(line)
        commands.append(bare)
        code, out = run(capsys, bare)
        assert code == 0, line
        if defaults:
            written[bare[0]] = defaults
            assert run(capsys, bare + defaults) == (code, out), line
        if bare[0] == "enumerate":
            assert comment == '28 rows, witnesses, "good_pairs = 3"'
            rows = [row for row in out.splitlines() if row.split()[:1] and row.split()[0].isdigit()]
            assert len(rows) == 28 and "good_pairs = 3" in out.splitlines()
    assert commands == [["bitflip"], ["ad-fidelity", "--recovery", "qec"], ["enumerate"],
                        ["fig1"], ["appendix-a"], ["certify"]]
    assert written == {
        "bitflip": ["--grid", "0:1:101"],
        "ad-fidelity": ["--grid", "log:1e-4:1e-2:9"],
        "fig1": ["--gamma-max", "1e-2", "--points", "101"],
        "appendix-a": ["--gamma", "0.1"],
    }
