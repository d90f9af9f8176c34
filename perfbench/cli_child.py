"""Run one qecwb subcommand with the span tracer installed.

Traced cli-session runs start this file in place of ``python -m qecwb.cli``:

    python perfbench/cli_child.py <subcommand> [options]

The subcommand's stdout and exit status are unchanged.  The last stderr line
carries the monotonic time at which ``qecwb.cli`` finished importing and the
span summary of the subcommand.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    import qecwb.cli

    ready = time.monotonic()
    from spans import TRACE_MARK, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = qecwb.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        tracer.end_scope()
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps({"ready": ready, "summary": tracer.summary()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
