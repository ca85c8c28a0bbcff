"""Run one gigmine CLI command in this process, optionally traced.

Usage: python3 perfbench/child.py [--trace FILE] -- <gigmine arguments>

This is what the ``gigmine`` console script does (call ``gigmine.cli.main``),
so an untraced run measures the public CLI. With ``--trace FILE`` the
functions listed in ``tracer.TRACED`` are wrapped before ``main`` runs and the
spans, counters and GC pauses are written to FILE as JSON at exit. The
process exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    trace_file = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import gigmine
    import gigmine.cli

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(gigmine.__file__), src]) != src:
        print(f"gigmine was imported from {gigmine.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    if trace_file is None:
        return gigmine.cli.main(cli_args)

    from tracer import Tracer  # this script's directory is on sys.path

    tracer = Tracer()
    tracer.install()
    code = tracer.call("cli", gigmine.cli.main, (cli_args,), {})
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
