#!/usr/bin/env python3
"""Start ``repro serve`` with the benchmark's span tracing installed first.

Usage::

    python3 e2ebench/serve_launcher.py SPAN_DIR serve [serve options...]

``SPAN_DIR`` is where the daemon's spans are written when it returns, or
``-`` to run untraced.  The remaining arguments go to ``repro.cli.main``
unchanged; ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    span_dir, arguments = argv[0], argv[1:]
    tracer = None
    if span_dir != "-":
        from e2e_spans import Tracer

        tracer = Tracer(span_dir).install()
    from repro.cli.main import main as repro_main

    try:
        return repro_main(arguments)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
