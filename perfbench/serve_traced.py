"""Traced daemon launcher: ``repro serve`` with the obs wrappers installed.

``python3 perfbench/serve_traced.py SPANS_OUT serve --port 0 ...``
installs the daemon-side wrappers from :mod:`tracer`, runs
``repro.cli.main(["serve", ...])`` until SIGTERM drains it, then writes
the recorded spans and counters to SPANS_OUT.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402  (after the path tweak above)


def main(argv: list[str]) -> int:
    out, serve_argv = argv[0], argv[1:]
    recorder = tracer.Tracer()
    tracer.install_daemon(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
