"""Run one eprb-lab command with the outside-in tracer installed.

    python3 bench/traced_cli.py SPANS.json -- <eprb-lab arguments>

Wraps the package's module-boundary calls (see ``tracer.py``), runs
``eprb_lab.cli.main(argv)`` inside a ``cli.command`` span, writes the spans
and counters to SPANS.json once the command has ended, and exits with the
command's exit code.  ``eprb_lab`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys

import tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <eprb-lab arguments>", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[2:]
    recorder = tracer.SpanRecorder()
    tracer.install(recorder)
    from eprb_lab import cli

    code = recorder.run_command(cli.main, command)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(recorder.to_json(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
