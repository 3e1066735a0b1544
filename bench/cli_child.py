"""Traced stand-in for ``python -m bowforge.cli``.

Usage: python bench/cli_child.py SPANS_OUT CLI_ARGS...

Times the import of ``bowforge.cli``, instruments the public functions in
``tracing.TARGETS``, runs ``bowforge.cli.main(CLI_ARGS)`` and writes the
spans as JSON to SPANS_OUT.  The exit code, standard output and any
traceback are those of the plain command.
"""

import json
import sys

from tracing import Tracer


def run() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    index = tracer.begin("import.bowforge.cli", "import")
    import bowforge.cli

    tracer.end(index)
    tracer.instrument()
    try:
        return bowforge.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(run())
