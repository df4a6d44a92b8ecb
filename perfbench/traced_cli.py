"""Run one CLI invocation with span wrappers installed.

Usage: python perfbench/traced_cli.py ARG...

Prints one JSON object: the exit code, the captured stdout and stderr of
``onsager.cli.main`` and the per-boundary span statistics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from spans import Tracer


def main(argv):
    tracer = Tracer()
    tracer.install()
    from onsager import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    json.dump({"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
               "spans": tracer.snapshot()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
