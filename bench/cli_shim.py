"""Traced stand-in for `python -m logsod.cli`, used by the traced cli-corpus run.

    python bench/cli_shim.py TRACE_OUT <logsod arguments...>

Times the import of jsonschema and of logsod.cli, installs the tracing
wrappers, calls logsod.cli.main with the remaining arguments and writes the
trace to TRACE_OUT as JSON when main returns or raises.  Exit code, stdout
and stderr are those of the plain command.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import jsonschema  # noqa: E402,F401  (timed on its own: the largest share of the import)

t1 = perf_counter()
import logsod.cli  # noqa: E402

t2 = perf_counter()

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.add("cli.jsonschema_import_s", t1 - t0)
    tracer.add("cli.import_s", t2 - t0)
    tracing.install(tracer, cli=True)
    try:
        return logsod.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracing.dump(tracer), fh)


if __name__ == "__main__":
    sys.exit(main())
