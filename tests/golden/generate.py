"""Record the golden CLI corpus: stdout, stderr and exit code of each case.

Run from the repository root to (re)write every ``<case>.json`` file here
and ``fingerprint.json``, the platform the corpus was recorded on:

    python tests/golden/generate.py

Each case runs as a user runs it, ``python -m qecwb.cli`` in a fresh
interpreter with ``src`` on the path, ``QECWB_TOL`` unset unless the case
sets it.  ``tests/test_golden.py`` replays every case in-process through
``qecwb.cli.main`` and compares it with the recording.  Argparse usage
errors are left out: their wording changes between Python versions.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
FORMATS = ("csv", "json", "text")

# (argv, environment overrides); every default run in each format, then the
# custom grids, the 1e-30 tolerance and every "error:" path
DEFAULT_ARGVS = (
    ["bitflip"],
    *(["ad-fidelity", "--recovery", kind] for kind in ("qec", "cp", "fletcher", "fletcher-opt")),
    ["enumerate"],
    ["fig1"],
    ["appendix-a"],
    ["certify"],
)
CASES = (
    [(argv + ["--format", fmt], {}) for argv in DEFAULT_ARGVS for fmt in FORMATS]
    + [(["bitflip", "--grid", "0,0.1,0.5,0.75", "--format", fmt], {}) for fmt in FORMATS]
    + [(["ad-fidelity", "--recovery", "fletcher", "--grid", "log:1e-3:1e-2:5", "--format", fmt], {})
       for fmt in FORMATS]
    + [([cmd], {"QECWB_TOL": "1e-30"}) for cmd in ("certify", "bitflip", "fig1", "ad-fidelity")]
    + [
        (["certify"], {"QECWB_TOL": "nan"}),
        (["bitflip", "--grid", "0.5,0.1"], {}),
        (["bitflip", "--grid", "0,nan"], {}),
        (["bitflip", "--grid", ""], {}),
        (["fig1", "--gamma-max", "1"], {}),
        (["fig1", "--gamma-max", "0", "--points", "3"], {}),
        (["appendix-a", "--gamma", "0.9999991"], {}),
    ]
)


def case_name(argv: list[str], env: dict) -> str:
    """File stem of a case: its argv and environment, flags without dashes, joined by '_'."""
    words = ["%s=%s" % item for item in sorted(env.items())]
    words += [w.lstrip("-") or "empty" for w in argv]
    return "_".join(words).replace(":", "~").replace(",", "+")


def _openblas_core() -> str:
    """The OpenBLAS kernel core numpy runs on, or "unknown" when the library does not say."""
    root = Path(np.__file__).resolve().parent
    paths = glob.glob(str(root.parent / "numpy.libs" / "*openblas*"))
    paths += glob.glob(str(root / ".dylibs" / "*openblas*"))
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return "unknown"


def fingerprint() -> dict:
    """numpy version, BLAS name and version, and OpenBLAS runtime core of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "core": _openblas_core(),
    }


def record(argv: list[str], env: dict) -> dict:
    full_env = {k: v for k, v in os.environ.items() if k != "QECWB_TOL"}
    full_env.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "qecwb.cli", *argv], env=full_env,
                          capture_output=True, text=True, timeout=120)
    return {
        "argv": argv,
        "env": env,
        "exit": done.returncode,
        "stdout": done.stdout.splitlines(keepends=True),
        "stderr": done.stderr.splitlines(keepends=True),
    }


def main() -> None:
    for old in HERE.glob("*.json"):
        old.unlink()
    for argv, env in CASES:
        with open(HERE / (case_name(argv, env) + ".json"), "w") as fh:
            json.dump(record(argv, env), fh, indent=1)
            fh.write("\n")
    with open(HERE / "fingerprint.json", "w") as fh:
        json.dump(fingerprint(), fh, indent=1)
        fh.write("\n")
    print("recorded %d cases in %s" % (len(CASES), HERE))


if __name__ == "__main__":
    main()
