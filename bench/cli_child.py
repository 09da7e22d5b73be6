"""One traced CLI call, for the traced cli run.

    PYTHONPATH=src python3 bench/cli_child.py SUMMARY.json ARGV...

Imports `chang.cli`, installs the tracing wrappers, runs `chang.cli.main`
on ARGV exactly as `python -m chang.cli ARGV` would, writes the trace
summary to SUMMARY.json and exits with the command's exit code.
"""

import json
import sys

import chang.cli

from tracing import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = chang.cli.main(argv)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
